package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// fillSpan records one epoch whose segments all have a non-zero duration.
func fillSpan(r *EpochRing, at float64) {
	sp := r.Begin(at)
	for _, seg := range []*int64{&sp.RefreshNs, &sp.AllocNs, &sp.CommitNs} {
		r.Lap(seg)
	}
	sp.RunNs, sp.RefreshNs, sp.AllocNs, sp.CommitNs = 1000, 200, 400, 50
}

func TestEpochRingWrapAndOrder(t *testing.T) {
	r := NewEpochRing(4)
	for i := 0; i < 7; i++ {
		fillSpan(r, float64(i))
	}
	if got := r.Recorded(); got != 7 {
		t.Fatalf("recorded %d, want 7", got)
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("len %d, want 4", got)
	}
	spans := r.Spans(nil)
	for i, es := range spans {
		if want := int64(4 + i); es.Epoch != want {
			t.Fatalf("span %d epoch %d, want %d (chronological order)", i, es.Epoch, want)
		}
	}
}

func TestEpochRingBeginNoAlloc(t *testing.T) {
	r := NewEpochRing(64)
	for i := 0; i < 128; i++ {
		fillSpan(r, float64(i))
	}
	i := 0
	if avg := testing.AllocsPerRun(5000, func() {
		sp := r.Begin(float64(i))
		r.Lap(&sp.RefreshNs)
		r.Lap(&sp.AllocNs)
		r.Lap(&sp.CommitNs)
		i++
	}); avg != 0 {
		t.Fatalf("EpochRing.Begin allocates %v/op, want 0", avg)
	}
}

// TestChromeTraceJSON validates the dump is well-formed Chrome trace-event
// JSON with the four decision segments, consecutive on the engine's thread —
// the machine-checkable proxy for "loads in chrome://tracing".
func TestChromeTraceJSON(t *testing.T) {
	r := NewEpochRing(16)
	for i := 0; i < 5; i++ {
		fillSpan(r, 100*float64(i))
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Pid  int     `json:"pid"`
			Tid  int     `json:"tid"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	end := map[int64]float64{} // epoch -> end of its previous segment
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			if ev.Name != "thread_name" {
				t.Errorf("unexpected metadata event %q", ev.Name)
			}
		case "X":
			phases[ev.Name]++
			if ev.Tid != 0 {
				t.Errorf("event %q on tid %d, want 0", ev.Name, ev.Tid)
			}
			if ev.Dur <= 0 {
				t.Errorf("event %q has dur %v", ev.Name, ev.Dur)
			}
			epoch, ok := ev.Args["epoch"].(float64)
			if !ok || ev.Args["t_sim_s"] == nil {
				t.Fatalf("event %q missing epoch/t_sim_s args", ev.Name)
			}
			if prev, seen := end[int64(epoch)]; seen && math.Abs(ev.Ts-prev) > 1e-3 {
				t.Errorf("epoch %v: %q starts at %v, previous segment ended at %v", epoch, ev.Name, ev.Ts, prev)
			}
			end[int64(epoch)] = ev.Ts + ev.Dur
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	for _, name := range []string{"run", "refresh+encode", "alloc+gemm", "commit"} {
		if phases[name] != 5 {
			t.Errorf("%d %q events in trace, want 5", phases[name], name)
		}
	}
}
