//go:build !race

package hierdrl

import "testing"

// TestConstantPowerManagersAllocateNothing pins that building an always-on
// or ad-hoc power manager costs no allocation: every server shares one boxed
// value. (fixed-timeout boxes its configured timeout once per server and is
// left out.) The build tag mirrors the other alloc-pinned suites: the race
// detector's instrumentation allocates.
func TestConstantPowerManagersAllocateNothing(t *testing.T) {
	for _, dpm := range []DPMKind{DPMAlwaysOn, DPMAdHoc} {
		cfg := RoundRobin(4)
		cfg.DPM = dpm
		got := testing.AllocsPerRun(100, func() {
			if _, err := buildPowerManager(&cfg, 0, nil); err != nil {
				t.Fatal(err)
			}
		})
		if got != 0 {
			t.Errorf("%s: %v allocs per build, want 0", dpm, got)
		}
	}
}
