package site

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/relation"
	"repro/internal/vec"
)

// Snapshot durability: a site can persist its stored relations to disk
// and restore them at startup, so a restarted warehouse site comes back
// with its partition intact without re-ingesting or regenerating. The
// snapshot format is a single gob stream (a header plus the relation
// map, each relation its frame), written atomically via a temp file +
// rename.

// snapshotMagic guards against restoring something that is not a Skalla
// snapshot of this format. Version 1 held relations as gob rows; it does
// not decode into a version-2 snapshotFile and is refused whole.
const snapshotMagic = "skalla-site-snapshot-v2"

type snapshotFile struct {
	Magic  string
	SiteID string
	Rels   map[string]*relation.Relation
}

// Snapshot writes every stored relation to path, atomically, each boxed
// back into rows from its batch. A refused relation is not written.
func (e *Engine) Snapshot(path string) error {
	rels := e.relations()
	snap := snapshotFile{Magic: snapshotMagic, SiteID: e.id, Rels: make(map[string]*relation.Relation, len(rels))}
	for name, s := range rels {
		if s.err != nil {
			continue
		}
		r, err := vec.ToRelation(s.batch)
		if err != nil {
			return fmt.Errorf("site: snapshot %s: %w", name, err)
		}
		snap.Rels[name] = r
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".skalla-snapshot-*")
	if err != nil {
		return fmt.Errorf("site: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	w := bufio.NewWriter(tmp)
	if err := gob.NewEncoder(w).Encode(&snap); err != nil {
		tmp.Close()
		return fmt.Errorf("site: snapshot encode: %w", err)
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("site: snapshot flush: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("site: snapshot close: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("site: snapshot rename: %w", err)
	}
	return nil
}

// Restore replaces the engine's relations with the snapshot's contents,
// converting each as Load does. A file it cannot read whole, or one holding
// a relation Load would refuse, leaves them as they were.
func (e *Engine) Restore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("site: restore: %w", err)
	}
	defer f.Close()
	var snap snapshotFile
	if err := gob.NewDecoder(bufio.NewReader(f)).Decode(&snap); err != nil {
		return fmt.Errorf("site: restore %s: not a %s file: %w", path, snapshotMagic, err)
	}
	if snap.Magic != snapshotMagic {
		return fmt.Errorf("site: %s is not a site snapshot", path)
	}
	rels := make(map[string]stored, len(snap.Rels))
	for name, r := range snap.Rels {
		s := e.convert(name, r)
		if s.err != nil {
			return fmt.Errorf("site: restore %s: %w", path, s.err)
		}
		rels[name] = s
	}
	e.mu.Lock()
	e.rels = rels
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
