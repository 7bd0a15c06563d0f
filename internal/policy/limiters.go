package policy

import "smtmlp/internal/core"

// StaticPartition implements the Section 6.6 static resource partitioning
// baseline (Raasch & Reinhardt; the Pentium 4 approach): each of the n
// threads owns a 1/n share of every buffer resource (ROB, LSQ, issue queues
// and rename registers) and can never allocate beyond it; functional units
// remain shared.
type StaticPartition struct{}

// Name implements core.Limiter.
func (StaticPartition) Name() string { return "static" }

// MayDispatch implements core.Limiter.
func (StaticPartition) MayDispatch(c *core.Core, tid int, u *core.Uop) bool {
	n := c.Threads()
	return withinShare(c, tid, u, u.In.Class.IsFP() || isFPDest(u), func(total int) int { return total / n })
}

// withinShare reports whether thread tid may dispatch u without holding
// more than share(total) entries of any buffer resource u needs: the ROB,
// the LSQ for memory ops, the issue queue of u's class and, when u writes a
// register, the integer or (fpRename) FP rename registers.
func withinShare(c *core.Core, tid int, u *core.Uop, fpRename bool, share func(total int) int) bool {
	cfg := c.Cfg()
	rob, lsq, iqInt, iqFP, renInt, renFP := c.ThreadResources(tid)
	switch {
	case rob >= share(cfg.ROBSize):
		return false
	case u.In.Class.IsMem() && lsq >= share(cfg.LSQSize):
		return false
	case u.In.Class.IsFP() && iqFP >= share(cfg.IQFP):
		return false
	case !u.In.Class.IsFP() && iqInt >= share(cfg.IQInt):
		return false
	case u.In.HasDest() && fpRename:
		return renFP < share(cfg.RenameFP)
	case u.In.HasDest():
		return renInt < share(cfg.RenameInt)
	}
	return true
}

func isFPDest(u *core.Uop) bool { return u.In.Dest >= 64 }

// DCRA implements dynamically controlled resource allocation in the spirit
// of Cazorla et al. (MICRO 2004): threads with at least one outstanding
// L1 data cache miss are classified "slow" (memory-intensive) and receive a
// fixed larger share of every buffer resource than "fast" threads.
//
// The published mechanism's exact sharing arithmetic is simplified here to a
// 2:1 slow:fast weighting (see DESIGN.md). The property the paper contrasts
// against — DCRA grants memory-intensive threads a fixed extra share
// regardless of how much MLP they actually have — is preserved, which is
// what the Figure 22/23 comparison exercises.
type DCRA struct {
	// SlowWeight is the resource-share weight of slow threads relative to a
	// fast thread's weight of 1. Zero means the default of 2.
	SlowWeight int
}

// Name implements core.Limiter.
func (DCRA) Name() string { return "dcra" }

// MayDispatch implements core.Limiter.
func (d DCRA) MayDispatch(c *core.Core, tid int, u *core.Uop) bool {
	sw := d.SlowWeight
	if sw <= 0 {
		sw = 2
	}
	n := c.Threads()
	hier := c.Hierarchy()
	now := c.Now()

	totalWeight := 0
	myWeight := 1
	for i := 0; i < n; i++ {
		w := 1
		if hier.OutstandingL1Miss(i, now) > 0 {
			w = sw
		}
		totalWeight += w
		if i == tid {
			myWeight = w
		}
	}

	return withinShare(c, tid, u, isFPDest(u), func(total int) int { return max(total*myWeight/totalWeight, 1) })
}
