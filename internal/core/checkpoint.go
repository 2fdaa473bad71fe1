package core

//lint:deterministic checkpoint encoding must be byte-identical run to run
//lint:wrap-errors checkpoint I/O failures must stay inspectable with errors.Is/As

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/relation"
)

// Checkpoint is the durable state of one execution after a completed
// synchronization round: the merged base-result structure X plus the
// statistics of every completed round. Theorem 2 is what makes round
// checkpoints cheap — X carries only base rows and aggregate state, never
// detail data, so the full recovery state of a round is the same small
// structure that crosses the wire anyway.
type Checkpoint struct {
	// Epoch identifies the execution (see PlanEpoch).
	Epoch string
	// Done counts completed synchronization rounds (the base round, when
	// the plan has one, counts as round 0).
	Done int
	// X is the base-result structure after round Done-1.
	X *relation.Relation
	// Rounds are the statistics of the completed rounds, per-site records
	// included, so a resumed execution reports the same totals and the
	// same decomposition as an uninterrupted one.
	Rounds []RoundStats
}

// CheckpointStore persists round checkpoints keyed by epoch. A store may
// hold checkpoints for many epochs at once (several coordinators sharing
// a directory); Save overwrites the epoch's previous checkpoint.
type CheckpointStore interface {
	Save(cp *Checkpoint) error
	// Load returns the epoch's checkpoint, or (nil, nil) when there is
	// none.
	Load(epoch string) (*Checkpoint, error)
	// Clear removes the epoch's checkpoint; clearing an absent epoch is
	// not an error.
	Clear(epoch string) error
}

// PlanEpoch derives the execution epoch from the plan itself: an FNV-64a
// hash over a deterministic rendering of everything that shapes the
// per-round exchanges. A restarted coordinator that rebuilds the same
// plan computes the same epoch and therefore finds its own checkpoint —
// no coordination or persistent counter needed. Two different plans
// would have to collide in 64 bits over their whole rendering to resume
// each other's checkpoint.
func PlanEpoch(p *Plan) string {
	h := fnv.New64a()
	w := func(parts ...string) {
		for _, s := range parts {
			h.Write([]byte(s))
			h.Write([]byte{0})
		}
	}
	// The base round hashes as a flag and the MD steps number from zero:
	// epochs name checkpoints on disk, so this rendering must not change.
	steps, base := p.Steps, len(p.Steps) > 0 && p.Steps[0].base()
	if base {
		steps = steps[1:]
	}
	w("detail", p.Detail)
	w("keys", strings.Join(p.Keys, ","))
	w("base", fmt.Sprint(base), strings.Join(p.Query.Base.Cols, ","), whereText(p.Query.Base.Where))
	for _, md := range p.Query.MDs {
		for i, theta := range md.Thetas {
			w("theta", theta.String())
			for _, s := range md.Aggs[i] {
				w("agg", s.String())
			}
		}
	}
	for _, st := range steps {
		w("step", fmt.Sprint(st.MDs), fmt.Sprint(st.FuseBase))
	}
	w("touched", fmt.Sprint(p.Touched))
	for _, f := range siteFilters(steps) {
		w("filter", f.Site, fmt.Sprint(f.step), f.Filter.Expr().String())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkpointFormat versions the checkpoint file. Format 3 carries X as
// its relation frame (relation.AppendFrame, base64 in the JSON), so every
// value reads back bit for bit — −0, NaN and ±Inf included — and rounds
// carry their per-site records (RoundStats.Sites), from which the coverage
// lists are derived. A file of any other format (format 2 spelled X value
// by value, format 1 had no version field and no per-site records) is
// refused whole rather than half-read, and the execution starts fresh.
const checkpointFormat = 3

// Checkpoint wire shape. Rounds encode exactly as in ExecStats.JSON
// (integer nanoseconds, sites sorted) so checkpoints encode
// byte-identically run to run.
type checkpointJSON struct {
	Format int          `json:"format"`
	Epoch  string       `json:"epoch"`
	Done   int          `json:"done"`
	X      []byte       `json:"x"`
	Rounds []RoundStats `json:"rounds"`
}

// EncodeCheckpoint renders cp as deterministic JSON.
func EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	out := checkpointJSON{Format: checkpointFormat, Epoch: cp.Epoch, Done: cp.Done, Rounds: cp.Rounds}
	if cp.X != nil {
		if err := cp.X.Validate(); err != nil {
			return nil, fmt.Errorf("core: checkpoint X: %w", err)
		}
		out.X = relation.AppendFrame(nil, cp.X)
	}
	return json.MarshalIndent(out, "", "  ")
}

// DecodeCheckpoint parses EncodeCheckpoint's output. The format is read
// first, so a file of another format is refused as such.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	var format struct {
		Format int `json:"format"`
	}
	if err := json.Unmarshal(b, &format); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint: %w", err)
	}
	if format.Format != checkpointFormat {
		return nil, fmt.Errorf("core: checkpoint format %d, want %d", format.Format, checkpointFormat)
	}
	var in checkpointJSON
	if err := json.Unmarshal(b, &in); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint: %w", err)
	}
	cp := &Checkpoint{Epoch: in.Epoch, Done: in.Done, Rounds: in.Rounds}
	if in.X != nil {
		x, err := relation.ReadFrame(in.X)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint X: %w", err)
		}
		cp.X = x
	}
	return cp, nil
}

// MemCheckpoints is an in-memory CheckpointStore. It round-trips through
// the JSON encoding on Save, so it exercises exactly the persistence path
// of the file store and returns checkpoints that do not alias the saved
// structures.
type MemCheckpoints struct {
	mu sync.Mutex
	//lint:guarded-by mu
	m map[string][]byte
}

// NewMemCheckpoints returns an empty in-memory store.
func NewMemCheckpoints() *MemCheckpoints {
	return &MemCheckpoints{m: map[string][]byte{}}
}

// Save implements CheckpointStore.
func (s *MemCheckpoints) Save(cp *Checkpoint) error {
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.m[cp.Epoch] = b
	s.mu.Unlock()
	return nil
}

// Load implements CheckpointStore.
func (s *MemCheckpoints) Load(epoch string) (*Checkpoint, error) {
	s.mu.Lock()
	b, ok := s.m[epoch]
	s.mu.Unlock()
	if !ok {
		return nil, nil
	}
	return DecodeCheckpoint(b)
}

// Clear implements CheckpointStore.
func (s *MemCheckpoints) Clear(epoch string) error {
	s.mu.Lock()
	delete(s.m, epoch)
	s.mu.Unlock()
	return nil
}

// FileCheckpoints persists checkpoints as one JSON file per epoch
// (<dir>/<epoch>.ckpt.json), written atomically via a temp file and
// rename so a crash mid-write never leaves a torn checkpoint: the
// previous round's checkpoint survives intact.
type FileCheckpoints struct {
	dir string
}

// NewFileCheckpoints returns a file-backed store rooted at dir, creating
// the directory if needed.
func NewFileCheckpoints(dir string) (*FileCheckpoints, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("core: checkpoint dir: %w", err)
	}
	return &FileCheckpoints{dir: dir}, nil
}

func (s *FileCheckpoints) path(epoch string) string {
	return filepath.Join(s.dir, epoch+".ckpt.json")
}

// Save implements CheckpointStore.
func (s *FileCheckpoints) Save(cp *Checkpoint) error {
	b, err := EncodeCheckpoint(cp)
	if err != nil {
		return err
	}
	// The temp file name must be unique per save, not just per epoch:
	// concurrent executions (or a replayed coordinator racing its
	// predecessor) saving the same epoch would interleave writes into a
	// shared temp file and rename a torn checkpoint into place.
	f, err := os.CreateTemp(s.dir, cp.Epoch+".ckpt.json.tmp*")
	if err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	if err := os.Rename(tmp, s.path(cp.Epoch)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("core: commit checkpoint: %w", err)
	}
	return nil
}

// Load implements CheckpointStore.
func (s *FileCheckpoints) Load(epoch string) (*Checkpoint, error) {
	b, err := os.ReadFile(s.path(epoch))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	return DecodeCheckpoint(b)
}

// Clear implements CheckpointStore.
func (s *FileCheckpoints) Clear(epoch string) error {
	err := os.Remove(s.path(epoch))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("core: clear checkpoint: %w", err)
	}
	return nil
}
