// Package transport implements the communication layer between the Skalla
// coordinator and its sites: the request/response protocol, a TCP
// transport (net + encoding/gob), an in-process transport that still
// serializes through gob so byte accounting stays exact, and a network
// cost model used to reproduce the paper's communication-dominated
// behavior on a single machine.
//
// Expressions, aggregate specs, and conditions travel in their textual
// wire form and are parsed at the receiving side; relations travel as
// columnar frames, which is how a relation.Relation gob-encodes itself.
// Only base-result structures and sub-aggregate results are ever shipped —
// never detail data, per the core design of the paper.
package transport

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/relation"
)

// Typed site-condition errors. They cross the wire as Response.Code (gob
// ships strings, not error chains), and Response.Error rebuilds a chain
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
)

// ErrCode classifies an error chain into a wire code, the inverse of
// Response.Error's code-to-sentinel mapping.
func ErrCode(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDraining):
		return CodeDraining
	default:
		return CodeOK
	}
}

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
	// OpDrop removes a stored relation.
	OpDrop
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
	case OpDrop:
		return "drop"
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
// Every field must survive the gob round trip — wiresafe (LINT.md) audits
// the transitive field graph from this root.
//
//lint:wireroot
type Request struct {
	Op  Op
	Rel string // OpLoad, OpDrop, OpRelInfo: relation name

	// OpLoad payload.
	Data *relation.Relation

	// OpGenerate payload.
	Gen *GenSpec

	// OpEvalRounds: base-values definition. A non-empty BaseCols means
	// "compute the base locally from the detail relation" (Proposition 2)
	// and gets the keyed reply; otherwise Base carries the shipped
	// base-result fragment and gets the states-only reply (ShipsBase). BaseCols are the key K of the
	// base-result structure, so whoever merges keyed replies — the
	// coordinator, or a relay tier pre-merging its children's — keys them
	// on BaseCols.
	BaseCols  []string
	BaseWhere string
	Detail    string
	Base      *relation.Relation

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
	// the per-site profiles into a per-query execution profile tree. Like
	// Round, the zero value keeps untagged requests wire-identical to the
	// pre-profiling encoding (gob omits zero-valued fields), so profiling
	// is strictly opt-in per query.
	QueryID string
}

// ShipsBase reports whether req evaluates rounds over a shipped Base. Such
// a request gets the echo-free, states-only reply: only the primitive-state
// columns of the rounds' aggregates, row i answering the i-th shipped row
// Response.Kept marks. Every other evaluation gets the keyed reply, the
// base columns followed by the states.
func (req *Request) ShipsBase() bool {
	return req.Op == OpEvalRounds && len(req.BaseCols) == 0 && req.Base != nil
}

// Response is the single wire response envelope. Every field must survive
// the gob round trip — wiresafe (LINT.md) audits the transitive field
// graph from this root.
//
//lint:wireroot
type Response struct {
	// Err is non-empty when the operation failed.
	Err string
	// Code classifies the failure for errors.Is-style reactions across
	// the wire (Code* constants): overload and drain conditions trigger
	// immediate replica failover instead of same-site retries.
	Code int
	// Rel is the result relation (eval ops) or nil.
	Rel *relation.Relation
	// RowCount reports affected/stored row counts for non-eval ops.
	RowCount int
	// ComputeNs is the site-side computation time in nanoseconds,
	// reported so the harness can break down evaluation time like the
	// paper's Fig. 5.
	ComputeNs int64
	// Profile is the site's per-request execution profile, attached only
	// when the request carried a QueryID (nil otherwise, which gob omits,
	// keeping untagged exchanges wire-identical).
	Profile *SiteProfile
	// Kept is the bitmap, over the shipped Base rows, of the rows a
	// states-only reply answers: bit i%8 of byte i/8 is set when Rel holds
	// a row for shipped row i (Proposition 1 drops the untouched ones).
	// Nil means every shipped row, in order.
	Kept []byte

	// frame is the reply's relation as a client received it.
	//lint:ignore wiresafe set by the client on decode; Rel is what crosses the wire
	frame *relation.Frame
}

// Frame returns a reply's relation as a frame: the one a client received,
// or the frame of Rel for a response a handler built.
func (r *Response) Frame() (*relation.Frame, error) {
	switch {
	case r.frame != nil:
		return r.frame, nil
	case r.Rel == nil:
		return nil, errors.New("no relation")
	}
	b, err := r.Rel.GobEncode()
	if err != nil {
		return nil, err
	}
	return relation.DecodeFrame(b)
}

// reply is Response with Rel received as a frame: a client decodes every
// reply into it. gob matches fields by name, so the wire bytes are
// Response's. The mirror exists because handlers build Rel boxed, and the
// benchmark reads it so (benchmark/probes.go); once they do not, Rel itself
// can be the frame and this type goes.
type reply struct {
	Err       string
	Code      int
	Rel       *relation.Frame
	RowCount  int
	ComputeNs int64
	Profile   *SiteProfile
	Kept      []byte
}

// refusedReply is what a transport delivers in place of a reply whose
// relation gob refused to encode (relation.ErrMalformed): a site error
// naming the fault, on a stream that is still in sync.
func refusedReply(err error) *Response {
	return &Response{Err: "transport: reply: " + err.Error()}
}

// SiteProfile is one site's per-request execution profile, piggy-backed
// on the response of a QueryID-tagged request. It scopes to exactly this
// request what the obs registry only reports process-globally (vec.*
// kernel counters, compute histograms), so concurrent queries never bleed
// into each other's numbers. Byte counts are cheap payload estimates
// (the coordinator measures exact wire bytes on its side of the link).
// The JSON tags name the fields in the coordinator's statistics document
// and the site's /profiles entries; gob ignores them.
type SiteProfile struct {
	// WallNs is the site-side wall time handling the request, including
	// parse and limit checks (ComputeNs covers only evaluation).
	WallNs int64 `json:"wall_ns"`
	// RowsIn counts base-structure rows received with the request;
	// RowsOut counts result rows returned.
	RowsIn  int `json:"rows_in"`
	RowsOut int `json:"rows_out"`
	// BytesInApprox / BytesOutApprox estimate the base and result
	// relation payload sizes (8 bytes per scalar plus string lengths) —
	// an estimate, not exact wire bytes.
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

// ErrOutcome classifies an error chain into a profile outcome, mirroring
// ErrCode's sentinel mapping.
func ErrOutcome(err error) string {
	switch {
	case errors.Is(err, ErrOverloaded):
		return OutcomeOverloaded
	case errors.Is(err, ErrDraining):
		return OutcomeDraining
	default:
		return OutcomeError
	}
}

// Error converts a Response error field back into a Go error. Classified
// codes wrap the matching sentinel so errors.Is(err, ErrOverloaded) and
// errors.Is(err, ErrDraining) survive the gob round trip.
func (r *Response) Error() error {
	if r.Err == "" {
		return nil
	}
	switch r.Code {
	case CodeOverloaded:
		return fmt.Errorf("site error: %s: %w", r.Err, ErrOverloaded)
	case CodeDraining:
		return fmt.Errorf("site error: %s: %w", r.Err, ErrDraining)
	default:
		return fmt.Errorf("site error: %s", r.Err)
	}
}

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
	// no layer (the ReplicaSet, Pool, Reconnector or Chaos) keeps a
	// response it returned or hands the same one out twice. Cancelling
	// ctx (or hitting its deadline) aborts the exchange:
	// connection-oriented transports interrupt blocked I/O and the call
	// returns an error wrapping ctx.Err(). A call aborted mid-exchange may
	// leave the underlying connection unusable; such clients report
	// subsequent calls as transport errors so a retrying wrapper redials.
	Call(ctx context.Context, req *Request) (*Response, error)
	// Close releases the connection.
	Close() error
}
