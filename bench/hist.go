package bench

import "math/bits"

// Hist is a log-bucket histogram of nanosecond durations. Values below
// 64 get exact buckets; larger values share 32 buckets per power of two,
// so a bucket is at most 1/32 (3.1%) of its lower edge wide. Quantiles
// spread each bucket's samples evenly across its width and interpolate
// linearly between neighbouring samples, so a percentile reads
// continuously instead of snapping to bucket edges, even over a few
// dozen samples. The zero value is ready to use; a Hist is not safe for
// concurrent use.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits
	// histBuckets covers every uint64: 64 exact buckets, then 32 per
	// remaining power of two.
	histBuckets = (64 - histSubBits) * histSub
)

func histBucket(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	shift := bits.Len64(v) - histSubBits - 1
	return shift*histSub + int(v>>uint(shift))
}

// histBounds returns bucket i's lower edge and width.
func histBounds(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	shift := uint(i/histSub - 1)
	top := uint64(i%histSub + histSub)
	return top << shift, 1 << shift
}

// Record adds one sample.
func (h *Hist) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histBucket(uint64(ns))]++
	h.n++
}

// Merge adds every sample of o.
func (h *Hist) Merge(o *Hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// Count returns the number of samples.
func (h *Hist) Count() uint64 { return h.n }

// Quantile returns the q-quantile (0 ≤ q ≤ 1) in nanoseconds, or 0 for
// an empty histogram.
func (h *Hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	r := q * float64(h.n-1)
	i := uint64(r)
	v := h.at(i)
	if i+1 >= h.n {
		return v
	}
	return v + (r-float64(i))*(h.at(i+1)-v)
}

// at returns the i-th smallest sample (0-based), a bucket's samples
// spread evenly across its width.
func (h *Hist) at(i uint64) float64 {
	var cum uint64
	for b, c := range h.counts {
		if i < cum+c {
			lo, w := histBounds(b)
			return float64(lo) + (float64(i-cum)+0.5)/float64(c)*float64(w)
		}
		cum += c
	}
	return 0
}
