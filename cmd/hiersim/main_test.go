package main

import (
	"bytes"
	"strings"
	"testing"

	"hierdrl"
)

// TestCheckRegistered pins the usage-error contract for -faults/-retry: a
// registered name passes silently, an unknown name yields exactly one line
// naming the offending value and the full registered set (main prints that
// line and exits 2).
func TestCheckRegistered(t *testing.T) {
	cases := []struct {
		name       string
		kind, val  string
		registered []string
		wantOK     bool
		wantParts  []string
	}{
		{"fault-known-none", "fault model", "none", names(hierdrl.FaultModels()), true, nil},
		{"fault-known-exp-crash", "fault model", "exp-crash", names(hierdrl.FaultModels()), true, nil},
		{"fault-known-correlated", "fault model", "correlated-crash", names(hierdrl.FaultModels()), true, nil},
		{"fault-known-degrade", "fault model", "degrade", names(hierdrl.FaultModels()), true, nil},
		{"fault-known-drain", "fault model", "maintenance-drain", names(hierdrl.FaultModels()), true, nil},
		{"fault-unknown", "fault model", "bit-rot", names(hierdrl.FaultModels()), false,
			[]string{`unknown fault model "bit-rot"`, "registered:", "exp-crash", "correlated-crash", "degrade", "maintenance-drain", "none"}},
		{"fault-empty", "fault model", "", names(hierdrl.FaultModels()), false,
			[]string{`unknown fault model ""`}},
		{"retry-known-backoff", "retry policy", "backoff", names(hierdrl.RetryPolicies()), true, nil},
		{"retry-known-immediate", "retry policy", "immediate", names(hierdrl.RetryPolicies()), true, nil},
		{"retry-unknown", "retry policy", "exponentail", names(hierdrl.RetryPolicies()), false,
			[]string{`unknown retry policy "exponentail"`, "registered:", "backoff", "drop-after", "immediate"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msg := checkRegistered(tc.kind, tc.val, tc.registered)
			if tc.wantOK {
				if msg != "" {
					t.Fatalf("checkRegistered(%q) = %q, want accepted", tc.val, msg)
				}
				return
			}
			if msg == "" {
				t.Fatalf("checkRegistered(%q) accepted an unknown name", tc.val)
			}
			if strings.Contains(msg, "\n") {
				t.Fatalf("usage error is not one line: %q", msg)
			}
			for _, part := range tc.wantParts {
				if !strings.Contains(msg, part) {
					t.Fatalf("usage error %q missing %q", msg, part)
				}
			}
		})
	}
}

// TestPrintRegistry pins -list byte for byte: the listing is the discovery
// surface scripts parse, so a refactor of the extension points behind it
// must not move a name, a description or a space.
func TestPrintRegistry(t *testing.T) {
	const want = `allocators:
  drl
  least-loaded
  pack-fit
  random
  round-robin
power managers:
  ad-hoc
  always-on
  fixed-timeout
  rl
predictors:
  ewma
  last-value
  lstm
  window-mean
fault models:
  correlated-crash
  degrade
  exp-crash
  maintenance-drain
  none
retry policies:
  backoff
  drop-after
  immediate
scenarios:
  burst-mmpp         two stacked MMPP burst layers (2.5x sharp bursts + 1.5x rolling surges) over a constant base
  diurnal            sinusoidal day/night arrival swing (amplitude 0.35) over Google-style jobs
  fail-slow          diurnal load with fail-slow stragglers: servers degrade to 35% speed, repair restores
  flashcrowd         diurnal base with a daily 6x flash-crowd spike (5 min ramp, 15 min hold, 30 min decay)
  heavytail          mice/elephants mix: 95% short exponential jobs, 5% Pareto(1.3) heavy-tail elephants
  mixed-het          interactive/batch/analytics mix on a heterogeneous eco/std/turbo cluster
  patch-window       steady load under rolling maintenance: each server drains for 10 min every 6 h
  rack-outage        steady load with correlated rack failures: 5 racks of 6, whole racks crash together
  ramp               linear load growth from 0.3x to 1.5x the mean rate over three days, then sustained
  scale-10k-diurnal  the scale-10k operating point under a diurnal swing: 10,000 servers, 2M streamed jobs
  steady             homogeneous Poisson arrivals at the paper's mean rate, Google-style jobs
`
	var b bytes.Buffer
	printRegistry(&b)
	if got := b.String(); got != want {
		t.Errorf("-list output changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
