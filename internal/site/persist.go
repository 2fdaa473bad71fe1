package site

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/relation"
	"repro/internal/vec"
)

// Snapshot durability: a site can persist its stored relations to disk
// and restore them at startup, so a restarted warehouse site comes back
// with its partition intact without re-ingesting or regenerating. A
// snapshot is the magic line, then each relation in name order: its name
// and its frame, each a uvarint length and its bytes. It is written
// atomically via a temp file + rename.

// snapshotMagic guards against restoring something that is not a Skalla
// snapshot of this format. Versions 1 and 2 were gob streams; neither
// starts with this line, so either is refused whole.
const snapshotMagic = "skalla-site-snapshot-v3\n"

// appendSnapshot appends the snapshot of rels to dst. A relation that has
// no frame fails it.
func appendSnapshot(dst []byte, rels map[string]*relation.Relation) ([]byte, error) {
	dst = append(dst, snapshotMagic...)
	names := make([]string, 0, len(rels))
	for name := range rels {
		names = append(names, name)
	}
	slices.Sort(names)
	for _, name := range names {
		f, err := relation.FrameOf(rels[name])
		if err != nil {
			return nil, fmt.Errorf("site: snapshot %s: %w", name, err)
		}
		dst = append(binary.AppendUvarint(dst, uint64(len(name))), name...)
		dst = append(binary.AppendUvarint(dst, uint64(len(f.Bytes()))), f.Bytes()...)
	}
	return dst, nil
}

// Snapshot writes every stored relation to path, atomically, each boxed
// back into rows from its batch. A refused relation is not written.
func (e *Engine) Snapshot(path string) error {
	rels := map[string]*relation.Relation{}
	for name, s := range e.relations() {
		if s.err != nil {
			continue
		}
		r, err := vec.ToRelation(s.batch)
		if err != nil {
			return fmt.Errorf("site: snapshot %s: %w", name, err)
		}
		rels[name] = r
	}
	b, err := appendSnapshot(nil, rels)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".skalla-snapshot-*")
	if err != nil {
		return fmt.Errorf("site: snapshot: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after successful rename
	_, err = tmp.Write(b)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		return fmt.Errorf("site: snapshot: %w", err)
	}
	return nil
}

// Restore replaces the engine's relations with the snapshot's contents,
// converting each as Load does. A file it cannot read whole, or one holding
// a relation Load would refuse, leaves them as they were.
func (e *Engine) Restore(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("site: restore: %w", err)
	}
	rest, ok := bytes.CutPrefix(b, []byte(snapshotMagic))
	if !ok {
		return fmt.Errorf("site: restore %s: not a %s file", path, snapshotMagic[:len(snapshotMagic)-1])
	}
	// field reads one length-prefixed field off rest.
	field := func() []byte {
		n, k := binary.Uvarint(rest)
		if k <= 0 || n > uint64(len(rest)-k) {
			return nil
		}
		f := rest[k : k+int(n)]
		rest = rest[k+int(n):]
		return f
	}
	rels := map[string]stored{}
	for len(rest) > 0 {
		at := len(b) - len(rest)
		name, frame := field(), field()
		r, err := relation.ReadFrame(frame)
		if name == nil || err != nil {
			return fmt.Errorf("site: restore %s: relation at byte %d: %w", path, at, err)
		}
		s := e.convert(string(name), r)
		if s.err != nil {
			return fmt.Errorf("site: restore %s: %w", path, s.err)
		}
		rels[string(name)] = s
	}
	e.mu.Lock()
	e.installLocked(rels)
	e.mu.Unlock()
	return nil
}

// RelationNames lists the stored relations, for diagnostics.
func (e *Engine) RelationNames() []string {
	rels := e.relations()
	out := make([]string, 0, len(rels))
	for name := range rels {
		out = append(out, name)
	}
	return out
}
