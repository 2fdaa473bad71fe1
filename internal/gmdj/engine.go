package gmdj

// Engine selects the GMDJ evaluation engine for EvalSub.
type Engine int

const (
	// EngineAuto is the default: the vectorized engine.
	EngineAuto Engine = iota
	// EngineVector evaluates with the columnar kernels of internal/vec,
	// falling back to rows per call when a relation or condition is
	// outside their reach.
	EngineVector
	// EngineRow forces the single-threaded row-at-a-time reference
	// engine the differential tests compare the kernels against.
	EngineRow
)

func (e Engine) String() string {
	switch e {
	case EngineVector:
		return "vector"
	case EngineRow:
		return "row"
	default:
		return "auto"
	}
}
