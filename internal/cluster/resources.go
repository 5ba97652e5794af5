package cluster

import (
	"fmt"
	"math"

	"hierdrl/internal/trace"
)

// NumResources re-exports the resource dimensionality |D|.
const NumResources = trace.NumResources

// Resources is a fixed-size vector of resource quantities (CPU, memory,
// disk), each normalized to one server's capacity.
type Resources [NumResources]float64

// UnitCapacity is a full server: 1.0 of every resource.
func UnitCapacity() Resources { return Resources{1, 1, 1} }

// Add returns r + o.
func (r Resources) Add(o Resources) Resources {
	for p := range r {
		r[p] += o[p]
	}
	return r
}

// Sub returns r - o.
func (r Resources) Sub(o Resources) Resources {
	for p := range r {
		r[p] -= o[p]
	}
	return r
}

// FitsIn reports whether a demand of r fits within the free capacity o
// (element-wise, with a tiny tolerance against float drift).
func (r Resources) FitsIn(o Resources) bool {
	const eps = 1e-9
	for p := range r {
		if r[p] > o[p]+eps {
			return false
		}
	}
	return true
}

// MaxFrac returns the largest component (the binding dimension).
func (r Resources) MaxFrac() float64 {
	m := r[0]
	for _, v := range r[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// NonNegative reports whether every component is >= -tolerance.
func (r Resources) NonNegative() bool {
	const eps = 1e-9
	for _, v := range r {
		if v < -eps {
			return false
		}
	}
	return true
}

// near reports whether r and o agree to within rounding (1e-9 in every
// component); a NaN component never does.
func (r Resources) near(o Resources) bool {
	for p := range r {
		if !(math.Abs(r[p]-o[p]) <= 1e-9) {
			return false
		}
	}
	return true
}

// Validate checks that every component lies in [0, 1].
func (r Resources) Validate() error {
	for p, v := range r {
		if v < 0 || v > 1 {
			return fmt.Errorf("cluster: resource %d value %v outside [0,1]", p, v)
		}
	}
	return nil
}

// FromTraceReq converts a trace job's demand array.
func FromTraceReq(req [trace.NumResources]float64) Resources {
	var r Resources
	copy(r[:], req[:])
	return r
}

// ToTraceReq is FromTraceReq's inverse, used when an interrupted job is
// converted back into a trace record for requeueing.
func (r Resources) ToTraceReq() [trace.NumResources]float64 {
	var req [trace.NumResources]float64
	copy(req[:], r[:])
	return req
}
