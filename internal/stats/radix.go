package stats

import (
	"math"
	"sort"
)

// radixMin is the length below which RadixSorter.Sort hands the slice to
// sort.Float64s. On a 2-vCPU x86-64 host the radix sort took 1.6-1.9x
// sort.Float64s's time at 512 values, 0.5-0.6x at 1024 and 0.2x at 100k.
const radixMin = 1024

// RadixSorter sorts float64 slices ascending with an LSD radix sort over
// order-preserving integer keys, one byte per pass. It keeps its two key
// buffers between calls, so sorting many columns of one length allocates
// them once. The zero value is ready to use; a RadixSorter is not safe for
// concurrent use.
type RadixSorter struct {
	keys, tmp []uint64
}

// Sort sorts xs in place, with the same bits sort.Float64s leaves. Without
// a NaN, and with zeros of at most one sign, the ascending order of xs is
// unique: two values that compare equal have equal bits. So any correct
// sort leaves the same bits, and so does this one. A NaN, or a -0 beside a
// +0, makes sort.Float64s's order depend on its algorithm, so such a slice
// (and any slice shorter than radixMin) goes to sort.Float64s itself.
func (s *RadixSorter) Sort(xs []float64) {
	n := len(xs)
	if n < radixMin {
		sort.Float64s(xs)
		return
	}
	if cap(s.keys) < n {
		s.keys = make([]uint64, n)
		s.tmp = make([]uint64, n)
	}
	keys, tmp := s.keys[:n], s.tmp[:n]
	// counts[d][v] is how many keys have v as their byte d.
	var counts [8][256]int
	var negZero, posZero bool
	for i, x := range xs {
		if x != x {
			sort.Float64s(xs)
			return
		}
		b := math.Float64bits(x)
		if x == 0 {
			if b != 0 {
				negZero = true
			} else {
				posZero = true
			}
		}
		// Flip every bit of a negative value and the sign bit of any
		// other: unsigned key order is then the float order, with -0
		// just below +0.
		k := b ^ (uint64(int64(b)>>63) | 1<<63)
		keys[i] = k
		// Unrolled: constant shifts, and no loop around eight increments.
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	if negZero && posZero {
		sort.Float64s(xs)
		return
	}
	for d := range counts {
		c := &counts[d]
		sh := uint(8 * d)
		if c[byte(keys[0]>>sh)] == n {
			continue // every key has the same byte d: the pass is a no-op
		}
		pos := 0
		for v, m := range c {
			c[v] = pos
			pos += m
		}
		for _, k := range keys {
			v := byte(k >> sh)
			tmp[c[v]] = k
			c[v]++
		}
		keys, tmp = tmp, keys
	}
	for i, k := range keys {
		// The inverse of the key map: a set top bit marks a value that
		// was not negative.
		xs[i] = math.Float64frombits(k ^ (uint64(int64(^k)>>63) | 1<<63))
	}
}
