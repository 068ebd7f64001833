package predictor

// Branch is a gshare/bimodal hybrid direction predictor standing in
// for the paper's TAGE-SC-L. Only the direction (and hence the
// mispredict-redirect rate) affects the trace-driven core, so the
// hybrid's accuracy profile is what matters, not tag geometry.
type Branch struct {
	gshare  []uint8 // 2-bit counters
	bimodal []uint8 // 2-bit counters
	chooser []uint8 // 2-bit: >=2 prefers gshare
	history uint64
	mask    uint64

	lookups    uint64
	mispredict uint64
}

// NewBranch builds a predictor with 2^logSize counters per table.
func NewBranch(logSize uint) *Branch {
	n := 1 << logSize
	b := &Branch{
		gshare:  make([]uint8, n),
		bimodal: make([]uint8, n),
		chooser: make([]uint8, n),
		mask:    uint64(n - 1),
	}
	for i := range b.chooser {
		b.chooser[i] = 1 // weakly prefer bimodal (gshare must earn it)
		// Boot weakly taken: real branch streams are taken-dominated,
		// and static sites may execute only a handful of times.
		b.gshare[i] = 2
		b.bimodal[i] = 2
	}
	return b
}

func (b *Branch) gIndex(pc uint64) uint64 { return ((pc >> 2) ^ b.history) & b.mask }
func (b *Branch) bIndex(pc uint64) uint64 { return (pc >> 2) & b.mask }

// PredictAndTrain looks up the direction for pc, immediately trains
// with the actual outcome (the trace knows it), updates history and
// reports whether the prediction was wrong — i.e. whether the core
// must pay a redirect.
func (b *Branch) PredictAndTrain(pc uint64, taken bool) (mispredicted bool) {
	gi, bi := b.gIndex(pc), b.bIndex(pc)
	gPred := b.gshare[gi] >= 2
	bPred := b.bimodal[bi] >= 2
	useG := b.chooser[bi] >= 2
	pred := bPred
	if useG {
		pred = gPred
	}
	b.lookups++
	mispredicted = pred != taken

	// Train the chooser toward whichever component was right.
	if gPred != bPred {
		if gPred == taken {
			if b.chooser[bi] < 3 {
				b.chooser[bi]++
			}
		} else if b.chooser[bi] > 0 {
			b.chooser[bi]--
		}
	}
	upd := func(c *uint8) {
		if taken {
			if *c < 3 {
				*c++
			}
		} else if *c > 0 {
			*c--
		}
	}
	upd(&b.gshare[gi])
	upd(&b.bimodal[bi])

	b.history = (b.history << 1) & b.mask
	if taken {
		b.history |= 1
	}
	if mispredicted {
		b.mispredict++
	}
	return mispredicted
}
