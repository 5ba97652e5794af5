package nn

import (
	"fmt"

	"hierdrl/internal/mat"
)

// MSE returns the mean-squared-error loss between prediction y and target t,
// along with the gradient dL/dy. The loss is 1/n * sum (y_i - t_i)^2.
func MSE(y, t mat.Vec) (loss float64, grad mat.Vec) {
	if len(y) != len(t) {
		panic(fmt.Sprintf("nn: MSE length mismatch %d != %d", len(y), len(t)))
	}
	grad = mat.NewVec(len(y))
	n := float64(len(y))
	for i := range y {
		d := y[i] - t[i]
		loss += d * d
		grad[i] = 2 * d / n
	}
	return loss / n, grad
}
