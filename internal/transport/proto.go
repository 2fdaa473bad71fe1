// Package transport implements the communication layer between the Skalla
// coordinator and its sites: the request/response protocol and its
// envelope codec, one client and server over a TCP socket or, for an
// in-process site, a pipe, so byte accounting is the same exact count for
// both, and a network cost model used to reproduce the paper's
// communication-dominated behavior on a single machine.
//
// Each message is one versioned envelope (envelope.go): its fields in a
// fixed order behind presence bits, so a message's bytes are a function
// of its values. Expressions, aggregate specs, and conditions travel in
// their textual wire form and are parsed at the receiving side; relations
// travel as their columnar frames. Only base-result structures and
// sub-aggregate results are ever shipped — never detail data, per the core
// design of the paper.
package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"

	"repro/internal/relation"
)

// Typed site-condition errors. They cross the wire as Response.Code (the
// wire carries strings, not error chains), and Response.Error rebuilds a chain
// that matches with errors.Is, so callers can classify without string
// inspection. A draining site is healthy but shedding load — the right
// reaction is immediate replica failover, not a retry against the same
// endpoint and not a permanent site-loss verdict. An overloaded one refused
// the request by its size, which every replica would refuse the same way,
// so that refusal is final.
var (
	// ErrOverloaded: the site refused the request because a per-request
	// resource limit (max result rows/bytes) was exceeded. The refusal is
	// deterministic per request: no layer re-sends it to a replica.
	ErrOverloaded = errors.New("transport: site overloaded")
	// ErrDraining: the site is shutting down gracefully and no longer
	// accepts new requests (in-flight requests still complete).
	ErrDraining = errors.New("transport: site draining")
	// ErrInconsistent: a merge of the sites' replies failed, at the root
	// or at a relay (a violated partition claim, a malformed fragment).
	// The sites answered; their answers do not add up, so no replica or
	// partial result can mend it.
	ErrInconsistent = errors.New("transport: inconsistent fragments")
	// ErrClosed: the call reached a client that was closed. It is the
	// caller's own doing, not a fault of the site: no layer re-sends it,
	// and the replica layer does not fail over from it.
	ErrClosed = errors.New("transport: client closed")
)

// Response.Code values classifying site-side errors on the wire.
const (
	// CodeOK: no classified condition (Err may still be set for plain
	// site-side failures).
	CodeOK = 0
	// CodeOverloaded maps to ErrOverloaded.
	CodeOverloaded = 1
	// CodeDraining maps to ErrDraining.
	CodeDraining = 2
	// CodeInconsistent maps to ErrInconsistent.
	CodeInconsistent = 3
)

// failure is one classified site condition: its wire code, the sentinel
// Response.Error wraps for it, and its profile outcome.
type failure struct {
	code     int
	sentinel error
	outcome  string
}

// failures is the one mapping between codes, sentinels and outcomes that
// ErrCode, ErrOutcome and Response.Error read. An error matching several
// sentinels classifies as the first.
var failures = []failure{
	{CodeOverloaded, ErrOverloaded, OutcomeOverloaded},
	{CodeDraining, ErrDraining, OutcomeDraining},
	{CodeInconsistent, ErrInconsistent, OutcomeError},
}

// classify returns the row of failures err matches, or an unclassified
// one.
func classify(err error) failure {
	for _, f := range failures {
		if errors.Is(err, f.sentinel) {
			return f
		}
	}
	return failure{CodeOK, nil, OutcomeError}
}

// ErrCode classifies an error chain into a wire code, the inverse of
// Response.Error's code-to-sentinel mapping.
func ErrCode(err error) int { return classify(err).code }

// Op is a request opcode.
type Op int

// The site protocol operations.
const (
	// OpPing checks liveness.
	OpPing Op = iota
	// OpLoad stores the shipped relation under Request.Rel at the site.
	OpLoad
	// OpGenerate makes the site synthesize its partition of a dataset
	// locally (so benchmarks never ship detail data).
	OpGenerate
	// Op 3 is retired: it computed the base-values query, which is now an
	// OpEvalRounds request with no rounds. Sites refuse it as unknown.
	_
	// OpEvalRounds evaluates zero or more GMDJ rounds against the local
	// detail relation and returns the sub-aggregate result. The base
	// relation either arrives with the request or is computed locally
	// (Proposition 2 fusion) when Request.BaseCols is set; with no rounds
	// the computed base-values relation is the result.
	OpEvalRounds
	// Op 5 is retired: it removed a stored relation, and nothing sent it.
	// Sites and relays refuse it as unknown.
	_
	// OpRelInfo returns row count and schema of a stored relation.
	OpRelInfo
)

// String returns the opcode mnemonic.
func (o Op) String() string {
	switch o {
	case OpPing:
		return "ping"
	case OpLoad:
		return "load"
	case OpGenerate:
		return "generate"
	case OpEvalRounds:
		return "evalRounds"
	case OpRelInfo:
		return "relInfo"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// RoundSpec describes one GMDJ round for a site: the textual forms of the
// MD operator plus evaluation flags.
type RoundSpec struct {
	// Detail names the local detail relation R_k.
	Detail string
	// Aggs[i] are the aggregate spec texts of l_i ("count(*) AS cnt1").
	Aggs [][]string
	// Thetas[i] is the condition text of θ_i.
	Thetas []string
	// BaseAlias/DetailAlias are the condition qualifiers (default B / R).
	BaseAlias   string
	DetailAlias string
	// Finalize appends finalized aggregate columns locally — required for
	// chained local evaluation where later rounds reference them.
	Finalize bool
	// Touched tracks |RNG| > 0 per group for distribution-independent
	// group reduction (Proposition 1).
	Touched bool
}

// GenSpec asks a site to generate its partition of a synthetic dataset.
type GenSpec struct {
	// Kind selects the generator: "tpcr" or "ipflow".
	Kind string
	// Rel is the name to store the generated relation under.
	Rel string
	// Params are generator-specific integer parameters (rows, seed, ...).
	Params map[string]int64
	// Site and NumSites select which horizontal partition to generate.
	Site     int
	NumSites int
}

// Request is the single wire request envelope. Fields are used per-Op.
// The envelope codec carries every exported field
// (TestEnvelopeCarriesEveryField).
type Request struct {
	Op  Op
	Rel string // OpLoad, OpRelInfo: relation name

	// OpLoad payload.
	Data *relation.Relation

	// OpGenerate payload.
	Gen *GenSpec

	// OpEvalRounds: base-values definition. A non-empty BaseCols means
	// "compute the base locally from the detail relation" (Proposition 2)
	// and gets the keyed reply; otherwise Base (or the frame SetBase sets)
	// carries the shipped base-result fragment and gets the states-only
	// reply (ShipsBase). BaseCols are the key K of the
	// base-result structure, so whoever merges keyed replies — the
	// coordinator, or a relay tier pre-merging its children's — keys them
	// on BaseCols.
	BaseCols  []string
	BaseWhere string
	Detail    string
	Base      *relation.Relation
	// SiteDisjoint claims that no two sites answer the same group of a
	// keyed reply (Corollary 1). Whoever merges the replies, the root or a
	// relay tier, checks it; leaf sites ignore it.
	SiteDisjoint bool

	// OpEvalRounds: the rounds to evaluate locally in sequence. None is
	// the base round; more than one means chained local evaluation
	// (synchronization reduction, Theorem 5 / Corollary 1).
	Rounds []RoundSpec

	// Round is the zero-based synchronization-round sequence number of
	// the execution, for site profiles, trace events and hedge events.
	// Sites never key anything on it: repeating a round recomputes it.
	Round int

	// QueryID, when non-empty, asks the site to profile this request and
	// piggy-back a SiteProfile on the response; the coordinator assembles
	// the per-site profiles into a per-query execution profile tree. An
	// empty one costs no byte on the wire, so profiling is strictly opt-in
	// per query.
	QueryID string

	// base is the shipped base as a frame (SetBase): a client sends its
	// bytes as they are, to every site that shares it and on every attempt
	// of a call. It crosses the wire as Base.
	base *relation.Frame
}

// SetBase ships f as the request's base, in place of Base.
func (req *Request) SetBase(f *relation.Frame) { req.base = f }

// BaseFrame returns the shipped base as a frame: the one SetBase set, or
// else the frame of Base; nil when the request ships none.
func (req *Request) BaseFrame() (*relation.Frame, error) {
	if req.base != nil || req.Base == nil {
		return req.base, nil
	}
	return relation.FrameOf(req.Base)
}

// ShipsBase reports whether req evaluates rounds over a shipped base (Base
// or SetBase's frame). Such a request gets the echo-free, states-only
// reply: only the primitive-state columns of the rounds' aggregates, row i
// answering the i-th shipped row Response.Kept marks. Every other
// evaluation gets the keyed reply, the base columns followed by the states.
func (req *Request) ShipsBase() bool {
	return req.Op == OpEvalRounds && len(req.BaseCols) == 0 && (req.Base != nil || req.base != nil)
}

// Response is the single wire response envelope. The envelope codec
// carries every exported field (TestEnvelopeCarriesEveryField).
type Response struct {
	// Err is non-empty when the operation failed.
	Err string
	// Code classifies the failure for errors.Is-style reactions across
	// the wire (Code* constants): overload and drain conditions trigger
	// immediate replica failover instead of same-site retries.
	Code int
	// Rel is a result relation a handler holds boxed, or nil. The site
	// and relay handlers set every reply relation as its frame (SetFrame);
	// a caller reads either through Frame.
	Rel *relation.Relation
	// RowCount reports affected/stored row counts for non-eval ops.
	RowCount int
	// ComputeNs is the site-side computation time in nanoseconds,
	// reported so the harness can break down evaluation time like the
	// paper's Fig. 5. A non-zero one crosses the wire in 8 bytes whatever
	// it reads, so the clock never changes a message's length.
	ComputeNs int64 `wire:"clock"`
	// Profile is the site's per-request execution profile, attached only
	// when the request carried a QueryID (nil otherwise, which costs no
	// byte on the wire).
	Profile *SiteProfile
	// Kept is the bitmap, over the shipped Base rows, of the rows a
	// states-only reply answers: bit i%8 of byte i/8 is set when its
	// relation holds a row for shipped row i (Proposition 1 drops the
	// untouched ones).
	// Nil means every shipped row, in order.
	Kept []byte

	// frame is the reply's relation as a frame: set by a handler
	// (SetFrame), or by the client on decode. It crosses the wire as Rel.
	frame *relation.Frame
}

// SetFrame makes f the reply's relation, in place of Rel.
func (r *Response) SetFrame(f *relation.Frame) { r.frame = f }

// Frame returns a reply's relation as a frame: the one a handler set or a
// client received, or else the frame of Rel.
func (r *Response) Frame() (*relation.Frame, error) {
	switch {
	case r.frame != nil:
		return r.frame, nil
	case r.Rel == nil:
		return nil, errors.New("no relation")
	}
	return relation.FrameOf(r.Rel)
}

// SiteProfile is one site's per-request execution profile, piggy-backed
// on the response of a QueryID-tagged request. It scopes to exactly this
// request what the obs registry only reports process-globally (vec.*
// kernel counters, compute histograms), so concurrent queries never bleed
// into each other's numbers. BytesInApprox is a cheap payload estimate;
// BytesOutApprox is exact (the coordinator measures exact wire bytes on
// its side of the link).
// The JSON tags name the fields in the coordinator's statistics document
// and the site's /profiles entries; the wire ignores them.
type SiteProfile struct {
	// WallNs is the site-side wall time handling the request, including
	// parse and limit checks (ComputeNs covers only evaluation). Like
	// ComputeNs, a non-zero one crosses the wire in 8 bytes.
	WallNs int64 `json:"wall_ns" wire:"clock"`
	// RowsIn counts base-structure rows received with the request;
	// RowsOut counts result rows returned.
	RowsIn  int `json:"rows_in"`
	RowsOut int `json:"rows_out"`
	// BytesInApprox estimates the shipped base relation's payload size
	// (8 bytes per scalar plus string lengths), not its wire bytes.
	// BytesOutApprox is exact despite its name, kept for readers of
	// recorded profiles: the length of the reply relation's frame.
	BytesInApprox  int64 `json:"bytes_in_approx"`
	BytesOutApprox int64 `json:"bytes_out_approx"`
	// Rounds is how many GMDJ rounds were evaluated locally (chained
	// local evaluation runs several per request).
	Rounds int `json:"rounds"`
	// Engine names the evaluation engine that ran the rounds. Sites have
	// one, the columnar kernels ("vector"), and no other path to fall
	// back to; the field stays for readers of recorded profiles.
	Engine string `json:"engine,omitempty"`
	// Workers is the evaluation parallelism used for this request.
	Workers int `json:"workers,omitempty"`
	// VecBatches / VecRows / VecFilterRows / VecSelected are the
	// vectorized kernel statistics of this request alone.
	VecBatches    int64 `json:"vec_batches"`
	VecRows       int64 `json:"vec_rows"`
	VecFilterRows int64 `json:"vec_filter_rows"`
	VecSelected   int64 `json:"vec_selected"`
	// Outcome classifies how the request ended: "ok", "overloaded",
	// "draining", or "error".
	Outcome string `json:"outcome"`
}

// SiteProfile.Outcome values.
const (
	// OutcomeOK: the request evaluated normally.
	OutcomeOK = "ok"
	// OutcomeOverloaded / OutcomeDraining: the site shed the request.
	OutcomeOverloaded = "overloaded"
	OutcomeDraining   = "draining"
	// OutcomeError: the request failed with a plain site-side error.
	OutcomeError = "error"
)

// ErrOutcome classifies an error chain into a profile outcome, by the same
// table as ErrCode.
func ErrOutcome(err error) string { return classify(err).outcome }

// Error converts a Response error field back into a Go error. Classified
// codes wrap the matching sentinel so errors.Is(err, ErrOverloaded) and
// the like survive the wire; the sentinel's text is appended
// only when the site's text does not already hold it.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	for _, f := range failures {
		if f.code == r.Code {
			text := "site error: " + r.Err
			if !strings.Contains(r.Err, f.sentinel.Error()) {
				text += ": " + f.sentinel.Error()
			}
			return &siteError{text, f.sentinel}
		}
	}
	return fmt.Errorf("site error: %s", r.Err)
}

// siteError is a classified site error rebuilt from a Response: text
// naming the sentinel once, and the sentinel for errors.Is.
type siteError struct {
	text     string
	sentinel error
}

func (e *siteError) Error() string { return e.text }
func (e *siteError) Unwrap() error { return e.sentinel }

// Shed reports whether the response is a load-shedding refusal (a drain):
// the site is alive but declined the request, so callers should fail over
// to a replica immediately rather than retry here. A limit refusal
// (CodeOverloaded) is not shed: it is final, since every replica applies
// the same limits to the same request.
func (r *Response) Shed() bool {
	return r != nil && r.Code == CodeDraining
}

// Handler processes site requests; implemented by the site engine and by
// relay tiers. The context is the caller's: it is cancelled when the
// requesting side abandons the exchange (local transport) or its
// connection drops (TCP transport), so multi-tier handlers must thread it
// into their own downstream calls for cancellation and deadlines to
// propagate through the whole coordinator tree — the ctxflow analyzer
// (LINT.md) enforces this mechanically.
type Handler interface {
	Handle(ctx context.Context, req *Request) *Response
}

// Client is the coordinator's handle to one site.
type Client interface {
	// SiteID returns the site's identifier.
	SiteID() string
	// Call performs one request/response exchange. A reply holds its
	// relation as a frame (Response.Frame); Rel is only what a handler
	// sets. The caller owns the returned *Response and may write to it:
	// no layer (the ReplicaSet, Pool, Reconnector or leaf) keeps a
	// response it returned or hands the same one out twice. Cancelling
	// ctx (or hitting its deadline) aborts the exchange:
	// connection-oriented transports interrupt blocked I/O and the call
	// returns an error wrapping ctx.Err(). A call aborted mid-exchange may
	// leave the underlying connection unusable; such clients report
	// subsequent calls as transport errors so the retry layer redials.
	Call(ctx context.Context, req *Request) (*Response, error)
	// Close releases the client's connections for good: every later call,
	// on every layer, fails with an error wrapping ErrClosed and dials
	// nothing. A fault is never a Close: a broken connection is a
	// transport error, which the retry layer redials.
	Close() error
}
