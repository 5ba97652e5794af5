//go:build !amd64

package mat

import "testing"

// forEachKernelFamily: the portable build has one kernel family.
func forEachKernelFamily(t *testing.T, f func(t *testing.T)) { f(t) }
