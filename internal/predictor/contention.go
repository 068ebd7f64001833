// Package predictor groups the three predictors the simulated core
// uses: the RoW contention predictor (the paper's Section IV-D), a
// gshare-style branch direction predictor standing in for TAGE-SC-L,
// and a StoreSet memory-dependence predictor.
package predictor

import (
	"fmt"

	"rowsim/internal/config"
)

// Contention is the PC-indexed table of N-bit saturating counters that
// estimates whether an atomic will access a contended cacheline. The
// paper's configuration is 64 entries of 4-bit counters (32 bytes),
// indexed by the 6 least-significant PC bits XORed with the following
// 6 bits (XOR-mapping).
type Contention struct {
	counters  []uint16
	max       uint16
	mask      uint64
	threshold uint16
	kind      config.PredictorKind

	predictions   uint64
	correct       uint64
	predContended uint64
}

// NewContention builds a predictor from the RoW configuration.
func NewContention(cfg *config.Config) *Contention {
	entries := cfg.RoW.PredictorEntries
	bits := cfg.RoW.PredictorBits
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("predictor: entries %d must be a positive power of two", entries))
	}
	return &Contention{
		counters:  make([]uint16, entries),
		max:       uint16(1<<uint(bits)) - 1,
		mask:      uint64(entries - 1),
		threshold: uint16(cfg.PredictorThreshold()),
		kind:      cfg.RoW.Predictor,
	}
}

// index applies the paper's XOR-mapping: low PC bits XOR the next
// group of bits, restricted to the table size. PCs are word-aligned,
// so the two low offset bits are dropped first.
func (p *Contention) index(pc uint64) uint64 {
	w := pc >> 2
	bits := uint(0)
	for 1<<bits < uint64(len(p.counters)) {
		bits++
	}
	return (w ^ (w >> bits)) & p.mask
}

// Predict returns true when the atomic at pc is predicted to face
// contention (and should therefore execute lazy).
func (p *Contention) Predict(pc uint64) bool {
	contended := p.counters[p.index(pc)] > p.threshold
	p.predictions++
	if contended {
		p.predContended++
	}
	return contended
}

// Train updates the counter for pc with the observed outcome and
// records accuracy against the prediction made for this instance.
func (p *Contention) Train(pc uint64, predicted, contended bool) {
	if predicted == contended {
		p.correct++
	}
	c := &p.counters[p.index(pc)]
	if contended {
		switch p.kind {
		case config.PredSaturate:
			*c = p.max
		case config.PredTwoUpOneDown:
			if *c+2 <= p.max {
				*c += 2
			} else {
				*c = p.max
			}
		default: // UpDown
			if *c < p.max {
				*c++
			}
		}
	} else if *c > 0 {
		*c--
	}
}

// Accuracy returns the fraction of trained atomics whose contention
// outcome matched the prediction (Fig. 12), or 0 before any training.
func (p *Contention) Accuracy() float64 {
	if p.predictions == 0 {
		return 0
	}
	return float64(p.correct) / float64(p.predictions)
}

// Predictions returns the number of predictions made.
func (p *Contention) Predictions() uint64 { return p.predictions }

// StorageBits returns the predictor's storage cost in bits, reported
// by the paper as part of the 64-byte overhead.
func (p *Contention) StorageBits() int {
	bits := 0
	for 1<<uint(bits) <= int(p.max) {
		bits++
	}
	return len(p.counters) * bits
}
