// Shed classification: the replica layer fails over immediately — without
// burning retry budget — on a draining refusal, and callers classify
// ErrOverloaded or ErrDraining in a response's error chain with errors.Is. These sentinels mirror the transport
// package's; a handler that flattens them to text breaks that
// classification, so wrap-errors files must keep the chain intact.
//
//lint:wrap-errors
package errflow

import (
	"errors"
	"fmt"
)

// ErrOverloaded marks a request refused by a per-request resource limit.
var ErrOverloaded = errors.New("site overloaded")

// ErrDraining marks a request refused by a server shutting down gracefully.
var ErrDraining = errors.New("site draining")

// refuseOverloaded wraps the sentinel: errors.Is(err, ErrOverloaded)
// still matches after the annotation, so the caller fails over instead of
// retrying the same overloaded site.
func refuseOverloaded(rows, limit int) error {
	return fmt.Errorf("result has %d rows, limit %d: %w", rows, limit, ErrOverloaded)
}

// refuseDraining layers context on an already-wrapped chain; %w keeps
// every link inspectable.
func refuseDraining(site string, err error) error {
	return fmt.Errorf("site %s: %w", site, err)
}

// classify is the consumer the chain exists for.
func classify(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded), errors.Is(err, ErrDraining):
		return "fail over now"
	default:
		return "retry"
	}
}

// flattenShed loses the sentinel: errors.Is sees only text, the shed
// response is misclassified as a transport fault, and the retry budget
// burns against a site that will refuse every attempt.
func flattenShed(err error) error {
	return fmt.Errorf("call refused: %v", err) // want `wrap it with %w`
}
