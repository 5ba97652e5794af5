package hierdrl_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"hierdrl"
)

// TestTraceCSVRoundTripExact checks the public codec preserves every field
// bit for bit: the writer's shortest-round-trip float formatting must parse
// back to identical float64s.
func TestTraceCSVRoundTripExact(t *testing.T) {
	tr := hierdrl.SyntheticTrace(200, 7)
	var buf bytes.Buffer
	if err := hierdrl.WriteTraceCSV(&buf, tr); err != nil {
		t.Fatalf("WriteTraceCSV: %v", err)
	}
	if !strings.HasPrefix(buf.String(), "arrival,duration,cpu,mem,disk\n") {
		t.Fatalf("missing header: %q", buf.String()[:40])
	}
	back, err := hierdrl.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatalf("ReadTraceCSV: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round-trip length %d want %d", back.Len(), tr.Len())
	}
	for i, want := range tr.Jobs {
		got := back.Jobs[i]
		if got.ID != i {
			t.Fatalf("job %d: ID %d", i, got.ID)
		}
		if math.Float64bits(got.Arrival) != math.Float64bits(want.Arrival) ||
			math.Float64bits(got.Duration) != math.Float64bits(want.Duration) {
			t.Fatalf("job %d: arrival/duration drifted: %v/%v want %v/%v",
				i, got.Arrival, got.Duration, want.Arrival, want.Duration)
		}
		for p := range got.Req {
			if math.Float64bits(got.Req[p]) != math.Float64bits(want.Req[p]) {
				t.Fatalf("job %d: req[%d] drifted: %v want %v", i, p, got.Req[p], want.Req[p])
			}
		}
	}
}

// TestTraceCSVTolerantParsing checks the reader's lenient-but-safe inputs:
// optional header, blank lines, surrounding whitespace.
func TestTraceCSVTolerantParsing(t *testing.T) {
	const in = "arrival,duration,cpu,mem,disk\n" +
		"\n" +
		" 0 , 60 , 0.1 , 0.2 , 0.3 \n" +
		"10,120,0.2,0.2,0.2\n" +
		"\n"
	tr, err := hierdrl.ReadTraceCSV(strings.NewReader(in))
	if err != nil {
		t.Fatalf("ReadTraceCSV: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("parsed %d jobs want 2", tr.Len())
	}
	if tr.Jobs[1].Arrival != 10 || tr.Jobs[1].Req[0] != 0.2 {
		t.Fatalf("job 1 = %+v", tr.Jobs[1])
	}

	// No header is fine too.
	tr, err = hierdrl.ReadTraceCSV(strings.NewReader("5,60,0.1,0.1,0.1\n"))
	if err != nil || tr.Len() != 1 {
		t.Fatalf("headerless parse: %v len=%d", err, tr.Len())
	}

	// Empty input parses as an empty trace (which Run then rejects).
	tr, err = hierdrl.ReadTraceCSV(strings.NewReader(""))
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty parse: %v len=%d", err, tr.Len())
	}
	if _, err := hierdrl.Run(hierdrl.RoundRobin(2), tr); err == nil {
		t.Fatal("Run accepted the empty parsed trace")
	}
}

// TestParseTraceCSVRow checks the exported row parser (the streaming
// counterpart of ReadTraceCSV, feeding Session.Submit) on good and bad rows.
func TestParseTraceCSVRow(t *testing.T) {
	j, err := hierdrl.ParseTraceCSVRow(" 5 , 60 , 0.1 , 0.2 , 0.3 ")
	if err != nil {
		t.Fatalf("ParseTraceCSVRow: %v", err)
	}
	if j.Arrival != 5 || j.Duration != 60 || j.Req != [3]float64{0.1, 0.2, 0.3} {
		t.Fatalf("parsed %+v", j)
	}
	for _, bad := range []string{"", "1,2,3,4", "1,2,3,4,5,6", "a,60,0.1,0.2,0.3"} {
		if _, err := hierdrl.ParseTraceCSVRow(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

// TestTraceCSVMalformedInputs checks every malformed-input class fails with
// an error (and never panics) at the public surface.
func TestTraceCSVMalformedInputs(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"too few fields", "0,60,0.1,0.2\n"},
		{"too many fields", "0,60,0.1,0.2,0.3,0.4\n"},
		{"non-numeric field", "0,sixty,0.1,0.2,0.3\n"},
		{"negative arrival", "-5,60,0.1,0.2,0.3\n"},
		{"zero duration", "0,0,0.1,0.2,0.3\n"},
		{"negative duration", "0,-60,0.1,0.2,0.3\n"},
		{"zero demand", "0,60,0,0.2,0.3\n"},
		{"demand above capacity", "0,60,1.5,0.2,0.3\n"},
		{"unsorted arrivals", "10,60,0.1,0.2,0.3\n5,60,0.1,0.2,0.3\n"},
		{"NaN demand", "0,60,NaN,0.2,0.3\n"},
	}
	for _, tc := range cases {
		if _, err := hierdrl.ReadTraceCSV(strings.NewReader(tc.in)); err == nil {
			t.Errorf("%s: accepted %q", tc.name, tc.in)
		}
	}
}

// FuzzReadTraceCSV feeds arbitrary bytes to ReadTraceCSV: it must return an
// error or a trace that passes Validate, never panic, and any trace it
// accepts must come back bit for bit through WriteTraceCSV → ReadTraceCSV.
func FuzzReadTraceCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := hierdrl.WriteTraceCSV(&buf, hierdrl.SyntheticTrace(20, 7)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("arrival,duration,cpu,mem,disk\n\n-0, 60 ,1,0x1p-3,5e-324\r\n-0,7200,0.5,0.5,0.5\n"))
	f.Add([]byte("10,60,0.1,0.2,0.3\n5,60,0.1,0.2,0.3\n"))
	f.Add([]byte("0,60,NaN,0.2,0.3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := hierdrl.ReadTraceCSV(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("accepted trace fails Validate: %v", err)
		}
		var out bytes.Buffer
		if err := hierdrl.WriteTraceCSV(&out, tr); err != nil {
			t.Fatalf("WriteTraceCSV: %v", err)
		}
		back, err := hierdrl.ReadTraceCSV(&out)
		if err != nil {
			t.Fatalf("written trace refused: %v\n%s", err, out.Bytes())
		}
		if back.Len() != tr.Len() {
			t.Fatalf("round trip holds %d jobs, want %d", back.Len(), tr.Len())
		}
		bits := math.Float64bits
		for i, want := range tr.Jobs {
			got := back.Jobs[i]
			if got.ID != want.ID || bits(got.Arrival) != bits(want.Arrival) ||
				bits(got.Duration) != bits(want.Duration) || bits(got.Req[0]) != bits(want.Req[0]) ||
				bits(got.Req[1]) != bits(want.Req[1]) || bits(got.Req[2]) != bits(want.Req[2]) {
				t.Fatalf("job %d came back as %+v, want %+v", i, got, want)
			}
		}
	})
}
