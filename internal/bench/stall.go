package bench

import (
	"wflocks"
	"wflocks/internal/workload"
)

// StallValueCodec wraps the single-word uint64 value codec so that
// every Encode draws from the stall point (workload.StallPoint describes
// the holder-stall regime). Encodes happen inside the wait-free
// structures' critical sections (bucket/slot writes and result-cell
// writes), so this plants the stall exactly where a preempted holder
// would hold everything up under a blocking design. A nil stall point
// yields the plain integer codec.
func StallValueCodec(sp *workload.StallPoint) wflocks.Codec[uint64] {
	if sp == nil {
		return wflocks.IntegerCodec[uint64]()
	}
	return wflocks.CodecFunc(1,
		func(v uint64, dst []uint64) {
			sp.Hit()
			dst[0] = v
		},
		func(src []uint64) uint64 { return src[0] })
}
