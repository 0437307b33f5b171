package site

import (
	"encoding/gob"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

// v1Snapshot is the single-value snapshot layout of format v1, whose
// relations were gob-encoded row by row.
type v1Snapshot struct {
	Magic  string
	SiteID string
	Rels   map[string]*v1Relation
}

type v1Relation struct {
	Schema *relation.Schema
	Rows   []relation.Row
}

// TestRestoreV1Snapshot: a v1 file is refused with an error naming the
// format version, not a raw gob type error.
func TestRestoreV1Snapshot(t *testing.T) {
	rel := flowRel([3]int64{1, 2, 3})
	path := t.TempDir() + "/v1.snap"
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	snap := v1Snapshot{
		Magic: "skalla-site-snapshot-v1", SiteID: "s1",
		Rels: map[string]*v1Relation{"flow": {Schema: rel.Schema, Rows: rel.Rows}},
	}
	if err := gob.NewEncoder(f).Encode(&snap); err != nil {
		t.Fatal(err)
	}
	f.Close()

	e := NewEngine("s1")
	err = e.Restore(path)
	if err == nil {
		t.Fatal("v1 snapshot restored")
	}
	if !strings.Contains(err.Error(), "snapshot format v1") || !strings.Contains(err.Error(), "v2") {
		t.Errorf("error %q does not name the version mismatch", err)
	}
	if strings.Contains(err.Error(), "gob") {
		t.Errorf("error %q is a raw gob error", err)
	}
}

// TestSnapshotRoundTripExact: restored relations hold exactly the
// snapshotted rows, and an empty engine snapshots and restores cleanly.
func TestSnapshotRoundTripExact(t *testing.T) {
	dir := t.TempDir()
	e := loadedEngine(t)
	if err := e.Snapshot(dir + "/a.snap"); err != nil {
		t.Fatal(err)
	}
	fresh := NewEngine("s2")
	if err := fresh.Restore(dir + "/a.snap"); err != nil {
		t.Fatal(err)
	}
	want, _ := e.Relation("flow")
	got, _ := fresh.Relation("flow")
	if !reflect.DeepEqual(got.Rows, want.Rows) || !got.Schema.Equal(want.Schema) {
		t.Fatalf("restored flow = %v, want %v", got, want)
	}

	if err := NewEngine("empty").Snapshot(dir + "/b.snap"); err != nil {
		t.Fatal(err)
	}
	if err := fresh.Restore(dir + "/b.snap"); err != nil {
		t.Fatal(err)
	}
	if names := fresh.RelationNames(); len(names) != 0 {
		t.Errorf("restored empty snapshot holds %v", names)
	}
}
