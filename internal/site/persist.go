package site

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/relation"
)

// Snapshot durability: a site can persist its stored relations to disk
// and restore them at startup, so a restarted warehouse site comes back
// with its partition intact without re-ingesting or regenerating. The
// snapshot format is a gob stream of two values — a header, then the
// relation map in the relations' columnar wire form — written atomically
// via a temp file + rename.

// snapshotMagic guards against restoring something that is not a Skalla
// snapshot, or one written in another format version: v1 files carried
// row-wise gob relations in a single value.
const (
	snapshotMagicPrefix = "skalla-site-snapshot-"
	snapshotMagic       = snapshotMagicPrefix + "v2"
)

// snapshotHeader is the first value of the stream. Its fields are also
// the leading fields of the v1 single-value layout, so decoding a v1 file
// into it yields the magic that names its version.
type snapshotHeader struct {
	Magic  string
	SiteID string
}

// Snapshot writes every stored relation to path, atomically.
func (e *Engine) Snapshot(path string) error {
	e.mu.RLock()
	hdr := snapshotHeader{Magic: snapshotMagic, SiteID: e.id}
	rels := make(map[string]*relation.Relation, len(e.rels))
	for name, rel := range e.rels {
		rels[name] = rel
	}
	e.mu.RUnlock()

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".skalla-snapshot-*")
	if err != nil {
		return fmt.Errorf("site: snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename

	w := bufio.NewWriter(tmp)
	enc := gob.NewEncoder(w)
	err = enc.Encode(&hdr)
	if err == nil {
		err = enc.Encode(rels)
	}
	if err != nil {
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

// Restore replaces the engine's relations with the snapshot's contents.
func (e *Engine) Restore(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("site: restore: %w", err)
	}
	defer f.Close()
	dec := gob.NewDecoder(bufio.NewReader(f))
	var hdr snapshotHeader
	if err := dec.Decode(&hdr); err != nil {
		return fmt.Errorf("site: restore decode: %w", err)
	}
	if hdr.Magic != snapshotMagic {
		if v, ok := strings.CutPrefix(hdr.Magic, snapshotMagicPrefix); ok {
			return fmt.Errorf("site: %s is a snapshot format %s, this build reads %s only",
				path, v, strings.TrimPrefix(snapshotMagic, snapshotMagicPrefix))
		}
		return fmt.Errorf("site: %s is not a site snapshot", path)
	}
	var rels map[string]*relation.Relation
	if err := dec.Decode(&rels); err != nil {
		return fmt.Errorf("site: restore decode: %w", err)
	}
	e.mu.Lock()
	e.rels = rels
	if e.rels == nil {
		e.rels = map[string]*relation.Relation{}
	}
	e.mu.Unlock()
	return nil
}

// RelationNames lists the stored relations, for diagnostics.
func (e *Engine) RelationNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]string, 0, len(e.rels))
	for name := range e.rels {
		out = append(out, name)
	}
	return out
}
