package obs

import "sync"

// Health is the process-level health state behind the /healthz and
// /readyz debug endpoints. Liveness ("is the process up") is implicit —
// a served /healthz is alive — while readiness ("should new work be sent
// here") is an explicit flag components flip: a draining site marks
// itself not ready the moment shutdown starts, for load balancers and
// orchestrators. Coordinators do not consult it: a draining site's wire
// refusal (ErrDraining) already makes them fail over.
type Health struct {
	mu sync.Mutex
	//lint:guarded-by mu
	ready bool
	//lint:guarded-by mu
	reason string
	//lint:guarded-by mu
	check func() (bool, string)
}

// NewHealth returns a Health that starts ready.
func NewHealth() *Health {
	return &Health{ready: true}
}

// SetNotReady marks the process not ready, with a human-readable reason
// ("draining", "restoring snapshot", ...).
func (h *Health) SetNotReady(reason string) {
	h.mu.Lock()
	h.ready = false
	h.reason = reason
	h.mu.Unlock()
}

// SetCheck installs an extra readiness gate consulted by Ready after the
// flag: even a ready process can be vetoed by the check — a coordinator,
// for example, gates its readiness on site fanout health. A nil check
// removes the gate. The check runs outside Health's lock and must be
// safe for concurrent use.
func (h *Health) SetCheck(check func() (bool, string)) {
	h.mu.Lock()
	h.check = check
	h.mu.Unlock()
}

// Ready reports the readiness flag and, when not ready, the reason.
func (h *Health) Ready() (bool, string) {
	h.mu.Lock()
	ready, reason, check := h.ready, h.reason, h.check
	h.mu.Unlock()
	if !ready {
		return false, reason
	}
	if check != nil {
		return check()
	}
	return true, ""
}
