package main

import "testing"

func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{3}, 3, 3, 3},
		{[]float64{4, 1, 3, 2}, 1.5, 2.5, 3.5},
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 3, 5.5, 8},
	} {
		in := append([]float64(nil), c.in...)
		q1, q2, q3 := quartiles(c.in)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		for i := range in {
			if in[i] != c.in[i] {
				t.Fatalf("quartiles reordered its input: %v", c.in)
			}
		}
	}
}
