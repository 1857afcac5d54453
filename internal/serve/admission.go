package serve

// The admission controller: the live counterpart of multiobject.FitDelays.
//
// FitDelays searches, off-line, for the smallest uniform delay scaling that
// keeps a catalog's planned peak bandwidth within a channel budget.  The
// live controller applies the same trade incrementally and per object:
// whenever a request arrives while the live channel gauge is at the
// configured cap, the requested object's delay is scaled up by one
// DegradeStep — longer slots mean fewer streams per unit time, which is
// exactly the Section 5 "increase the delay instead of declining" knob —
// and the request is still served, at the degraded delay.  Only when an
// object has exhausted MaxDelayScale (or its delay already equals its
// length, the largest meaningful slot) is a request rejected.  Every
// outcome is counted.
//
// The controller is strategy-agnostic: degradation drains the object's
// current scheduler (finalizing its plan exactly like a batch horizon
// there) and opens a fresh one — whatever the planner family — with the
// scaled delay, spliced in at the drained scheduler's end.

// admit decides the outcome for a request on st at time t, degrading the
// object's delay epoch as a side effect when the gauge is at the cap.
//
//modlint:noalloc
func (sh *shard) admit(st *objectState, t float64) Decision {
	cap := sh.srv.cfg.MaxChannels
	if cap <= 0 || sh.srv.gauge.Load() < int64(cap) {
		return Admitted
	}
	step := sh.srv.cfg.DegradeStep
	next := st.scale * step
	if next > sh.srv.cfg.MaxDelayScale || st.delay >= st.obj.Length {
		return Rejected
	}
	sh.degrade(st, next)
	return Degraded
}

// degrade closes st's current delay epoch — draining its scheduler at the
// clock, which finalizes started streams with the trailing unit truncated
// exactly like a batch horizon there — and opens a new scheduler with the
// scaled delay, based at the closed epoch's end.  The request that
// triggered the degradation is then admitted into the new epoch by the
// caller, which re-keys the object's due time after that Admit.
func (sh *shard) degrade(st *objectState, scale float64) {
	delay := st.obj.Delay * scale
	if delay > st.obj.Length {
		delay = st.obj.Length
	}
	base := st.sched.Drain(sh.now)
	sched, err := sh.newScheduler(st.obj, st.strategy, delay, base)
	if err != nil {
		// Construction cannot fail here (New validated the strategy and
		// the scaled delay stays in (0, Length]); if it somehow does, keep
		// serving on the drained scheduler rather than wedging the loop.
		return
	}
	st.carry.Accumulate(st.sched.Totals())
	st.sched = sched
	st.scale = scale
	st.delay = delay
	scaled := st.obj
	scaled.Delay = delay
	st.L = scaled.Slots()
	st.epoch++
}
