package window_test

import (
	"fmt"

	"ndss/internal/window"
)

// ExampleGenerateLinear mirrors the paper's Example 1 structure: divide
// a hash array at its minima and report only windows wide enough for
// the length threshold.
func ExampleGenerateLinear() {
	// Token hash values; the global minimum sits at index 3.
	vals := []uint64{50, 30, 80, 10, 90, 20, 70}
	for _, w := range window.GenerateLinear(vals, 3, nil) {
		fmt.Printf("window (%d, %d, %d) covers %d sequences\n", w.L, w.C, w.R, w.Count())
	}
	fmt.Printf("expected count for n=7, t=3: %.2f\n", window.ExpectedCount(7, 3))
	// Output:
	// window (0, 1, 2) covers 4 sequences
	// window (0, 3, 6) covers 16 sequences
	// window (4, 5, 6) covers 4 sequences
	// expected count for n=7, t=3: 3.00
}
