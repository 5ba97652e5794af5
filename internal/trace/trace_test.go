package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// fixture returns n valid jobs in arrival order whose fields are not short
// decimals, so a CSV round trip must carry every bit.
func fixture(n int) *Trace {
	tr := &Trace{Jobs: make([]Job, n)}
	for i := range tr.Jobs {
		x := float64(i)
		tr.Jobs[i] = Job{
			ID:       i,
			Arrival:  x * math.Pi,
			Duration: 60 + 97*math.Sqrt(x+1),
			Req:      [NumResources]float64{0.002 + math.Mod(0.618034*x, 0.5), 0.01 + math.Mod(0.414214*x, 0.4), 1 / (x + 3)},
		}
	}
	return tr
}

func TestJobValidate(t *testing.T) {
	good := Job{ID: 0, Arrival: 1, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid job rejected: %v", err)
	}
	cases := []Job{
		{ID: 0, Arrival: -1, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}},
		{ID: 0, Arrival: 0, Duration: 0, Req: [3]float64{0.1, 0.1, 0.1}},
		{ID: 0, Arrival: 0, Duration: 60, Req: [3]float64{0, 0.1, 0.1}},
		{ID: 0, Arrival: 0, Duration: 60, Req: [3]float64{0.1, 1.5, 0.1}},
	}
	for i, j := range cases {
		if err := j.Validate(); err == nil {
			t.Errorf("case %d: invalid job accepted", i)
		}
	}
}

func TestTraceValidateOrdering(t *testing.T) {
	tr := &Trace{Jobs: []Job{
		{ID: 0, Arrival: 5, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}},
		{ID: 1, Arrival: 3, Duration: 60, Req: [3]float64{0.1, 0.1, 0.1}},
	}}
	if err := tr.Validate(); err == nil {
		t.Fatal("out-of-order trace accepted")
	}
	tr.Jobs[1].Arrival = 6
	if err := tr.Validate(); err != nil {
		t.Fatalf("ordered trace rejected: %v", err)
	}
	tr.Jobs[1].ID = 7
	if err := tr.Validate(); err == nil {
		t.Fatal("mis-IDed trace accepted")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := fixture(300)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Len() != tr.Len() {
		t.Fatalf("round-trip length %d want %d", back.Len(), tr.Len())
	}
	for i := range tr.Jobs {
		if tr.Jobs[i] != back.Jobs[i] {
			t.Fatalf("job %d changed in round trip:\n  %+v\n  %+v",
				i, tr.Jobs[i], back.Jobs[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := map[string]string{
		"ShortRow":   "arrival,duration,cpu,mem,disk\n1,2,0.1\n",
		"BadNumber":  "1,x,0.1,0.1,0.1\n",
		"OutOfOrder": "5,60,0.1,0.1,0.1\n3,60,0.1,0.1,0.1\n",
		"BadDemand":  "1,60,2.0,0.1,0.1\n",
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadCSV(strings.NewReader(data)); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestReadCSVSkipsBlankAndHeader(t *testing.T) {
	data := "arrival,duration,cpu,mem,disk\n\n1,60,0.1,0.2,0.3\n\n2,70,0.1,0.2,0.3\n"
	tr, err := ReadCSV(strings.NewReader(data))
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if tr.Len() != 2 {
		t.Fatalf("parsed %d jobs want 2", tr.Len())
	}
}

func TestSliceRebases(t *testing.T) {
	tr := fixture(100)
	sub := tr.Slice(10, 20)
	if sub.Len() != 10 {
		t.Fatalf("slice length %d want 10", sub.Len())
	}
	if sub.Jobs[0].Arrival != 0 {
		t.Fatalf("slice not rebased: first arrival %v", sub.Jobs[0].Arrival)
	}
	if err := sub.Validate(); err != nil {
		t.Fatalf("slice invalid: %v", err)
	}
	want := tr.Jobs[15].Arrival - tr.Jobs[10].Arrival
	if math.Abs(sub.Jobs[5].Arrival-want) > 1e-9 {
		t.Fatalf("relative arrivals changed: %v want %v", sub.Jobs[5].Arrival, want)
	}
}

func TestSliceBoundsPanics(t *testing.T) {
	tr := fixture(10)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.Slice(5, 20)
}

func TestSegments(t *testing.T) {
	tr := fixture(103)
	segs := tr.Segments(10)
	if len(segs) != 10 {
		t.Fatalf("got %d segments want 10", len(segs))
	}
	total := 0
	for _, s := range segs {
		total += s.Len()
		if err := s.Validate(); err != nil {
			t.Fatalf("segment invalid: %v", err)
		}
	}
	if total != 103 {
		t.Fatalf("segments cover %d jobs want 103", total)
	}
	// First 3 segments get the remainder.
	if segs[0].Len() != 11 || segs[3].Len() != 10 {
		t.Fatalf("segment sizes: %d, %d", segs[0].Len(), segs[3].Len())
	}
}

func TestComputeStatsEmptyAndSingle(t *testing.T) {
	empty := &Trace{}
	s := empty.ComputeStats()
	if s.Jobs != 0 || s.Span != 0 {
		t.Fatal("empty trace stats wrong")
	}
	one := &Trace{Jobs: []Job{{ID: 0, Arrival: 0, Duration: 100, Req: [3]float64{0.1, 0.1, 0.1}}}}
	s = one.ComputeStats()
	if s.MeanDuration != 100 || s.Span != 0 {
		t.Fatalf("single-job stats wrong: %+v", s)
	}
}

// TestWriteCSVStreamRoundTrip asserts the streaming writer emits exactly the
// canonical format ReadCSV parses back.
func TestWriteCSVStreamRoundTrip(t *testing.T) {
	want := fixture(200)
	next := 0
	var buf bytes.Buffer
	if err := WriteCSVStream(&buf, func() (Job, bool) {
		if next == want.Len() {
			return Job{}, false
		}
		next++
		return want.Jobs[next-1], true
	}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != want.Len() {
		t.Fatalf("round trip %d jobs, want %d", got.Len(), want.Len())
	}
	for i := range want.Jobs {
		if got.Jobs[i].Arrival != want.Jobs[i].Arrival || got.Jobs[i].Req != want.Jobs[i].Req {
			t.Fatalf("job %d: %+v vs %+v", i, got.Jobs[i], want.Jobs[i])
		}
	}
}
