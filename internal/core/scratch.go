package core

// This file holds the high-water-mark scratch idiom used across the
// hot sense→predict→balance path (DESIGN.md §11): buffers grow to the
// largest size a run demands and are reused verbatim afterwards, so
// steady-state epochs allocate nothing. The grow helpers return stale
// contents on the fast path — callers must overwrite every element.

// growFloats returns s resized to n, reallocating only when capacity
// is insufficient. Contents are unspecified.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
	}
	return s[:n]
}

// growAlloc returns s resized to n; contents are unspecified.
func growAlloc(s Allocation, n int) Allocation {
	if cap(s) < n {
		return make(Allocation, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
	}
	return s[:n]
}

// growBools returns s resized to n; contents are unspecified.
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
	}
	return s[:n]
}

// growFloatRows returns s resized to n rows, keeping existing row
// headers (and their backing capacity) where possible. Row contents
// are unspecified; callers re-point every row.
func growFloatRows(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		grown := make([][]float64, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
		copy(grown, s)
		return grown
	}
	return s[:n]
}

// growIntRows returns s resized to n rows, keeping existing row
// headers so per-row capacity survives reuse across epochs.
func growIntRows(s [][]int, n int) [][]int {
	if cap(s) < n {
		grown := make([][]int, n) //sbvet:allow hotpath(scratch grows to the high-water mark once; steady-state epochs reuse it)
		copy(grown, s)
		return grown
	}
	return s[:n]
}
