package server

import (
	"fmt"
	"math"
	"net/http"
	"strings"
	"time"

	"github.com/tpctl/loadctl/internal/core"
	"github.com/tpctl/loadctl/internal/ctl"
	"github.com/tpctl/loadctl/internal/telemetry"
)

// This file is the server's "decide" wiring: the ctl.Loop tick that
// closes measurement intervals and drives the controllers, the per-class
// controller management, and the /controller inspection/switch endpoint.

// tick closes one measurement interval: fold the stripes, turn the deltas
// into per-class and aggregate samples, feed the controllers, install the
// new limits, and hand the decisions to the ctl.Loop's trace.
func (s *Server) tick(now time.Time) []ctl.Decision {
	nowNanos := now.Sub(s.start).Nanoseconds()
	folds := s.tel.FoldAll()
	// Snapshot the (cumulative) latency histograms alongside the fold:
	// differencing against the previous tick's snapshot yields the
	// interval-local p95 the SLO controllers regulate on.
	hists := make([]telemetry.HistCounts, len(s.hists))
	for ci := range s.hists {
		hists[ci] = s.hists[ci].Counts()
	}
	var decisions []ctl.Decision

	s.mu.Lock()
	// Use the actually elapsed window, not the configured interval: under
	// CPU saturation the ticker fires late, and dividing by the nominal Δt
	// would inflate load and throughput exactly when the controller most
	// needs accurate samples.
	dtNanos := now.Sub(s.lastTick).Nanoseconds()
	s.lastTick = now
	if dtNanos <= 0 {
		dtNanos = s.cfg.Interval.Nanoseconds()
	}
	t := s.elapsed()

	agg := make(telemetry.Fold, len(counterSchema))
	prevAgg := make(telemetry.Fold, len(counterSchema))
	var aggHist telemetry.HistCounts
	var shed uint64
	cds := make([]classDelta, len(folds))
	for ci := range folds {
		iv, sample := telemetry.CloseInterval(t, accumOf(folds[ci]), accumOf(s.prevFold[ci]), nowNanos, dtNanos)
		dh := hists[ci].Sub(s.prevHist[ci])
		for i, n := range dh {
			aggHist[i] += n
		}
		sample.RespP95 = dh.Quantile(0.95)
		iv.RespP95 = sample.RespP95
		s.prevHist[ci] = hists[ci]
		// Interval-local readings for the overload detector, captured
		// before the previous-fold snapshot is overwritten below.
		cd := classDelta{
			name:     s.classes[ci].Name,
			arrivals: folds[ci][cRequests] - s.prevFold[ci][cRequests],
			shed: (folds[ci][cTimeouts] - s.prevFold[ci][cTimeouts]) +
				(folds[ci][cRejected] - s.prevFold[ci][cRejected]),
			p95:    sample.RespP95,
			target: s.classes[ci].SLOTarget,
			dh:     dh,
		}
		for _, n := range dh {
			cd.total += n
		}
		cds[ci] = cd
		// SLO attainment: an interval counts as targeted when the class
		// has a target and produced response samples; it is attained when
		// the interval p95 met the target.
		if cd.target > 0 && cd.total > 0 {
			s.sloTargeted[ci]++
			if cd.p95 <= cd.target {
				s.sloAttained[ci]++
			}
		}
		// A class that timed out or rejected arrivals this interval is
		// shedding: the bit feeds the load signal's per-class shed state,
		// which routing tiers use for overload propagation.
		if ci < 64 && cd.shed > 0 {
			shed |= 1 << uint(ci)
		}
		agg.Add(folds[ci])
		prevAgg.Add(s.prevFold[ci])
		s.prevFold[ci] = folds[ci]
		s.lastClassSmp[ci] = sample
		if s.perClass && s.classCtrls[ci] != nil {
			limit := s.classCtrls[ci].Update(sample)
			s.classUpdates[ci]++
			iv.Limit = limit
			s.multi.SetClassLimit(ci, limit)
			decisions = append(decisions, ctl.Decision{
				Scope:      s.classes[ci].Name,
				Controller: s.classCtrls[ci].Name(),
				Sample:     sample,
				Limit:      limit,
			})
		}
		s.lastClass[ci] = iv
	}

	iv, sample := telemetry.CloseInterval(t, accumOf(agg), accumOf(prevAgg), nowNanos, dtNanos)
	sample.RespP95 = aggHist.Quantile(0.95)
	iv.RespP95 = sample.RespP95
	if !s.perClass {
		// Pool control: the aggregate sample steers the shared limit.
		limit := s.ctrl.Update(sample)
		s.updates++
		iv.Limit = limit
		// Install while still holding mu so a concurrent controller
		// switch cannot be overwritten by a limit computed from the old
		// controller.
		s.multi.SetPoolLimit(limit)
		decisions = append(decisions, ctl.Decision{
			Scope:      "pool",
			Controller: s.ctrl.Name(),
			Sample:     sample,
			Limit:      limit,
		})
		// Weight learning: every WeightEpoch intervals, retune the class
		// weights from the shed rates observed over the epoch.
		if s.cfg.WeightEpoch > 0 {
			s.epochTicks++
			if s.epochTicks >= s.cfg.WeightEpoch {
				s.epochTicks = 0
				decisions = append(decisions, s.retuneWeightsLocked(t, folds)...)
			}
		}
		// Per-class rows report the effective slice of the new pool.
		st := s.multi.Stats()
		for ci := range s.lastClass {
			s.lastClass[ci].Limit = st.Classes[ci].Share
		}
	} else {
		iv.Limit = s.multi.Limit()
	}
	s.lastSamp = sample
	s.last = iv
	s.history = append(s.history, iv)
	if len(s.history) > s.cfg.HistoryLen {
		s.history = s.history[len(s.history)-s.cfg.HistoryLen:]
	}
	// The total installed limit, for the limit-collapse condition (read
	// under mu so a concurrent controller switch can't interleave).
	poolLimit := s.multi.Limit()
	s.mu.Unlock()
	s.shedMask.Store(shed)
	s.sigSeq.Add(1) // after the mask: cached load signals are now stale
	s.observeTick(t, cds, poolLimit, decisions)
	return decisions
}

// enterPerClassLocked builds one controller per class by name within the
// given bounds and flips the gate to per-class mode. Each controller is
// seeded at the class's weighted slice of total when total > 0, else at
// the class's current effective slice — so the switch is capacity-neutral
// by default. The caller holds mu (or is still constructing the server).
func (s *Server) enterPerClassLocked(name string, bounds core.Bounds, total float64) error {
	st := s.multi.Stats()
	var sumW float64
	for _, c := range st.Classes {
		sumW += c.Weight
	}
	for ci := range s.classes {
		seed := st.Classes[ci].Share
		if s.perClass {
			seed = st.Classes[ci].Limit
		}
		if total > 0 && sumW > 0 {
			seed = total * st.Classes[ci].Weight / sumW
		}
		ctrl, err := makeController(name, seed, bounds)
		if err != nil {
			return err
		}
		s.classCtrls[ci] = ctrl
		s.classUpdates[ci] = 0
		s.multi.SetClassLimit(ci, ctrl.Bound())
	}
	s.perClass = true
	s.multi.SetPerClass(true)
	return nil
}

// modeLocked names the control mode; the caller holds mu.
func (s *Server) modeLocked() string {
	switch {
	case s.perClass && s.sloMode:
		return "slo"
	case s.perClass:
		return "perclass"
	default:
		return "pool"
	}
}

// classCtrlView is one class's row in the GET /controller document.
type classCtrlView struct {
	Class      string  `json:"class"`
	Controller string  `json:"controller"`
	Limit      float64 `json:"limit"`
	// SLOTarget is the class's p95 response-time target in seconds (slo
	// mode; omitted when the class has none).
	SLOTarget float64 `json:"slo_target,omitempty"`
	// TargetedIntervals counts closed intervals where the class had an SLO
	// target and response samples; AttainedIntervals the subset whose
	// interval p95 met the target; SLOAttainment their ratio. All omitted
	// until the class has targeted at least one interval.
	TargetedIntervals uint64      `json:"targeted_intervals,omitempty"`
	AttainedIntervals uint64      `json:"attained_intervals,omitempty"`
	SLOAttainment     float64     `json:"slo_attainment,omitempty"`
	Updates           uint64      `json:"updates"`
	LastSample        core.Sample `json:"last_sample"`
}

// controllerView is the GET /controller document.
type controllerView struct {
	Controller      string  `json:"controller"`
	Mode            string  `json:"mode"`
	Limit           float64 `json:"limit"`
	IntervalSeconds float64 `json:"interval_seconds"`
	Updates         uint64  `json:"updates"`
	// LastSample is the most recent aggregate measurement.
	LastSample core.Sample `json:"last_sample"`
	// Classes lists the per-class controllers (populated in perclass
	// mode).
	Classes []classCtrlView `json:"classes,omitempty"`
	// Trace is the recorded decision trace, oldest first (populated with
	// ?trace=1): one entry per controller update, carrying the sample the
	// controller saw and the limit it decided — replayable offline
	// through ctl.Replay.
	Trace []ctl.Decision `json:"trace,omitempty"`
}

// controllerSwitch is the POST /controller body.
type controllerSwitch struct {
	// Controller is "pa", "is", "static", or "none" (for scope slo:
	// "slo-p" or "slo-fuzzy", default "slo-p").
	Controller string `json:"controller"`
	// Scope selects what the new controller steers: "pool" (default) —
	// one controller for the shared limit; "perclass" — one controller
	// per class; "class" — replace a single class's controller (implies
	// perclass mode), named by Class; "slo" — per-class SLO regulation
	// of each targeted class's interval p95.
	Scope string `json:"scope"`
	Class string `json:"class"`
	// Initial optionally sets the new controller's starting bound (for
	// scope perclass: the new total, split over classes by weight);
	// default carries the currently installed limit over.
	Initial float64 `json:"initial"`
	// Lo/Hi optionally override the static clamp (both must be set).
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
	// Targets optionally overrides per-class SLO targets in seconds,
	// keyed by class name (scope slo only). A zero value clears a
	// class's target.
	Targets map[string]float64 `json:"targets"`
}

func (s *Server) handleController(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		wantTrace := r.URL.Query().Get("trace") == "1"
		s.mu.Lock()
		view := controllerView{
			Controller:      s.ctrl.Name(),
			Mode:            s.modeLocked(),
			IntervalSeconds: s.cfg.Interval.Seconds(),
			Updates:         s.updates,
			LastSample:      s.lastSamp,
		}
		// Per-class rows are present exactly when the mode is not pool —
		// the consistency contract /controller promises its readers (a
		// pool-mode document never carries per-class rows). SLO attainment
		// is tracked regardless of mode and surfaces here whenever the
		// rows do.
		if s.perClass {
			for ci, cc := range s.classes {
				name := "(pool)"
				if s.classCtrls[ci] != nil {
					name = s.classCtrls[ci].Name()
				}
				cv := classCtrlView{
					Class:      cc.Name,
					Controller: name,
					Limit:      s.multi.ClassLimit(ci),
					SLOTarget:  cc.SLOTarget,
					Updates:    s.classUpdates[ci],
					LastSample: s.lastClassSmp[ci],
				}
				if tg := s.sloTargeted[ci]; tg > 0 {
					cv.TargetedIntervals = tg
					cv.AttainedIntervals = s.sloAttained[ci]
					cv.SLOAttainment = float64(s.sloAttained[ci]) / float64(tg)
				}
				view.Classes = append(view.Classes, cv)
			}
		}
		// Limit and trace are read while still holding mu: reading them
		// after the unlock let a concurrent mode switch pair, say, mode
		// "pool" with a per-class limit sum in one response. mu orders
		// before the gate's and the trace's own (leaf) locks — tick takes
		// them in the same order every interval.
		view.Limit = s.multi.Limit()
		if wantTrace {
			view.Trace = s.loop.Trace()
		}
		s.mu.Unlock()
		writeJSON(w, http.StatusOK, view)
	case http.MethodPost:
		var req controllerSwitch
		if !decodeBody(w, r, &req) {
			return
		}
		bounds := core.DefaultBounds()
		if req.Lo != 0 || req.Hi != 0 {
			// The documented contract is "both must be set": a half-set
			// pair would silently validate as {0, Hi} or {Lo, 0}.
			if req.Lo == 0 {
				http.Error(w, "bounds override requires both lo and hi: lo is missing", http.StatusBadRequest)
				return
			}
			if req.Hi == 0 {
				http.Error(w, "bounds override requires both lo and hi: hi is missing", http.StatusBadRequest)
				return
			}
			bounds = core.Bounds{Lo: req.Lo, Hi: req.Hi}
			if err := bounds.Validate(); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
		}
		switch req.Scope {
		case "", "pool":
			// Validate the name before mutating anything; the real
			// controller is built under mu so the carried-over limit is
			// the one actually installed at the swap (reading it before
			// the lock let a concurrent tick move it in between, making
			// the "carry the current limit" default non-capacity-neutral).
			if _, err := makeController(req.Controller, 1, bounds); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			initial := req.Initial
			if initial <= 0 {
				initial = s.multi.Limit()
			}
			ctrl, err := makeController(req.Controller, initial, bounds)
			if err != nil {
				s.mu.Unlock()
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.ctrl = ctrl
			s.updates = 0
			s.perClass = false
			s.sloMode = false
			s.multi.SetPerClass(false)
			// Under mu for the same reason as in tick(): swap and install
			// are one atomic step relative to the measurement loop. The
			// response's limit is captured here too — once installed, the
			// controller belongs to the tick loop and reading its Bound
			// outside mu races with Update.
			limit := ctrl.Bound()
			s.multi.SetPoolLimit(limit)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]any{
				"controller": ctrl.Name(),
				"mode":       "pool",
				"limit":      limit,
			})
		case "perclass":
			// Validate the name before mutating anything.
			if _, err := makeController(req.Controller, 1, bounds); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			// Initial > 0 is the new total to split by weight; 0 keeps
			// the current slices.
			err := s.enterPerClassLocked(req.Controller, bounds, req.Initial)
			if err == nil {
				s.sloMode = false
			}
			limits := make(map[string]float64, len(s.classes))
			for ci, cc := range s.classes {
				limits[cc.Name] = s.multi.ClassLimit(ci)
			}
			s.mu.Unlock()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"controller": req.Controller,
				"mode":       "perclass",
				"limits":     limits,
			})
		case "class":
			ci, ok := s.multi.ClassIndex(req.Class)
			if !ok {
				http.Error(w, fmt.Sprintf("unknown class %q (have %s)", req.Class, strings.Join(s.multi.ClassNames(), ", ")), http.StatusBadRequest)
				return
			}
			s.mu.Lock()
			if !s.perClass {
				// Entering per-class mode: seed the untargeted classes
				// with static controllers at their current share so only
				// the addressed class changes behavior.
				st := s.multi.Stats()
				for i := range s.classes {
					s.classCtrls[i] = core.NewStatic(st.Classes[i].Share)
					s.classUpdates[i] = 0
					s.multi.SetClassLimit(i, st.Classes[i].Share)
				}
				s.perClass = true
				s.multi.SetPerClass(true)
			}
			initial := req.Initial
			if initial <= 0 {
				initial = s.multi.ClassLimit(ci)
			}
			ctrl, err := makeController(req.Controller, initial, bounds)
			if err != nil {
				s.mu.Unlock()
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			s.classCtrls[ci] = ctrl
			s.classUpdates[ci] = 0
			// Captured under mu: the installed controller belongs to the
			// tick loop from here on (see the pool scope).
			limit := ctrl.Bound()
			s.multi.SetClassLimit(ci, limit)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, map[string]any{
				"controller": ctrl.Name(),
				"mode":       "perclass",
				"class":      req.Class,
				"limit":      limit,
			})
		case "slo":
			name := req.Controller
			if name == "" {
				name = s.cfg.SLOController
			}
			// Validate the controller name before touching targets.
			if _, err := makeSLOController(name, 1, 1, bounds); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			for cn := range req.Targets {
				if _, ok := s.multi.ClassIndex(cn); !ok {
					http.Error(w, fmt.Sprintf("unknown class %q in targets (have %s)", cn, strings.Join(s.multi.ClassNames(), ", ")), http.StatusBadRequest)
					return
				}
			}
			for cn, tgt := range req.Targets {
				if tgt < 0 || math.IsNaN(tgt) || math.IsInf(tgt, 1) {
					http.Error(w, fmt.Sprintf("invalid SLO target %v for class %q", tgt, cn), http.StatusBadRequest)
					return
				}
			}
			s.mu.Lock()
			oldTargets := make([]float64, len(s.classes))
			for ci := range s.classes {
				oldTargets[ci] = s.classes[ci].SLOTarget
			}
			for cn, tgt := range req.Targets {
				ci, _ := s.multi.ClassIndex(cn)
				s.classes[ci].SLOTarget = tgt
			}
			err := s.enterSLOLocked(name, bounds)
			if err != nil {
				// A failed switch must not leave half-applied targets.
				for ci := range s.classes {
					s.classes[ci].SLOTarget = oldTargets[ci]
				}
			}
			view := make(map[string]map[string]float64, len(s.classes))
			if err == nil {
				for ci, cc := range s.classes {
					view[cc.Name] = map[string]float64{
						"limit":  s.multi.ClassLimit(ci),
						"target": cc.SLOTarget,
					}
				}
			}
			s.mu.Unlock()
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			writeJSON(w, http.StatusOK, map[string]any{
				"controller": name,
				"mode":       "slo",
				"classes":    view,
			})
		default:
			http.Error(w, fmt.Sprintf("unknown scope %q (want pool, perclass, class or slo)", req.Scope), http.StatusBadRequest)
		}
	default:
		http.Error(w, "GET or POST only", http.StatusMethodNotAllowed)
	}
}

// makeController builds a controller by name with the given starting bound,
// used by the live-switch endpoint and the cmd front-ends.
func makeController(name string, initial float64, bounds core.Bounds) (core.Controller, error) {
	if math.IsInf(initial, 1) {
		initial = bounds.Hi
	}
	initial = bounds.Clamp(initial)
	switch name {
	case "pa":
		cfg := core.DefaultPAConfig()
		cfg.Bounds = bounds
		cfg.Initial = initial
		return core.NewPA(cfg), nil
	case "is":
		cfg := core.DefaultISConfig()
		cfg.Bounds = bounds
		cfg.Initial = initial
		return core.NewIS(cfg), nil
	case "static":
		return core.NewStatic(initial), nil
	case "none":
		return core.NoControl(), nil
	default:
		return nil, fmt.Errorf("server: unknown controller %q (want pa, is, static, none)", name)
	}
}
