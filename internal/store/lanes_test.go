package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestLanesRouting pins the lane hash: deterministic, full coverage at the
// default width, and — the property the design leans on — identical to the
// SAD's stripe hash for SA keys, so a datapath shard and its commit lane
// are the same stripe.
func TestLanesRouting(t *testing.T) {
	l, err := OpenLanes(t.TempDir(), LanesCount(64), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()

	used := make(map[int]bool)
	for spi := uint32(0); spi < 4096; spi++ {
		key := fmt.Sprintf("tx/%08x", spi)
		lane := l.laneOf(key)
		if lane != l.laneOf(key) {
			t.Fatalf("laneOf(%q) not deterministic", key)
		}
		if want := int((spi * 2654435761) >> (32 - 6)); lane != want {
			t.Fatalf("laneOf(%q) = %d, want SAD stripe %d", key, lane, want)
		}
		if rx := l.laneOf(fmt.Sprintf("rx/%08x", spi)); rx != lane {
			t.Fatalf("rx lane %d != tx lane %d for SPI %#x", rx, lane, spi)
		}
		used[lane] = true
	}
	if len(used) != 64 {
		t.Errorf("4096 SPIs hit %d/64 lanes", len(used))
	}
	// Non-SA keys route too, inside bounds.
	if lane := l.laneOf("cluster/epoch"); lane < 0 || lane >= 64 {
		t.Errorf("generic key lane = %d, out of range", lane)
	}
}

// TestLanesValuesAndClaims exercises the medium surface over many lanes:
// saves land in the owning lane, Values merges disjoint lanes, claims are
// per-key, and deletes retire durably.
func TestLanesValuesAndClaims(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(8), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	const n = 200
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if err := l.Cell(key).Save(uint64(i + 1)); err != nil {
			t.Fatalf("Save %s: %v", key, err)
		}
	}
	if got := l.Keys(); got != n {
		t.Fatalf("Keys = %d, want %d", got, n)
	}
	vals := l.Values()
	if len(vals) != n {
		t.Fatalf("Values len = %d, want %d", len(vals), n)
	}
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("rx/%08x", i)
		if vals[key] != uint64(i+1) {
			t.Fatalf("Values[%s] = %d, want %d", key, vals[key], i+1)
		}
	}

	if _, err := l.ClaimCell("rx/00000000"); err != nil {
		t.Fatalf("ClaimCell: %v", err)
	}
	if _, err := l.ClaimCell("rx/00000000"); !errors.Is(err, ErrCellClaimed) {
		t.Fatalf("double claim = %v, want ErrCellClaimed", err)
	}
	l.ReleaseCell("rx/00000000")
	if _, err := l.ClaimCell("rx/00000000"); err != nil {
		t.Fatalf("reclaim after release: %v", err)
	}

	if err := l.Delete("rx/00000001"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Reopen: the deleted key stays gone, everything else recovers in place.
	l2, err := OpenLanes(dir, LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LaneCount(); got != 8 {
		t.Fatalf("reopened LaneCount = %d, want manifest's 8", got)
	}
	if _, ok, _ := l2.Cell("rx/00000001").Fetch(); ok {
		t.Error("deleted key survived reopen")
	}
	if v, ok, err := l2.Cell(fmt.Sprintf("rx/%08x", n-1)).Fetch(); err != nil || !ok || v != n {
		t.Errorf("Fetch after reopen = (%d, %v, %v), want (%d, true, nil)", v, ok, err, n)
	}
	if rs := l2.RecoveryStats(); rs.FramesDropped != 0 || rs.TornTail {
		t.Errorf("clean reopen RecoveryStats = %+v", rs)
	}
}

// TestLanesManifestAuthoritative: a reopen with a different LanesCount must
// use the manifest's count — the key→lane hash has to match the files.
func TestLanesManifestAuthoritative(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	if err := l.Cell("tx/0000beef").Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	l.Close()

	l2, err := OpenLanes(dir, LanesCount(64), LanesWithoutSync())
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := l2.LaneCount(); got != 4 {
		t.Fatalf("LaneCount = %d, want the manifest's 4 (LanesCount(64) ignored)", got)
	}
	if v, ok, err := l2.Cell("tx/0000beef").Fetch(); err != nil || !ok || v != 7 {
		t.Fatalf("Fetch = (%d, %v, %v), want (7, true, nil)", v, ok, err)
	}
}

// TestLanesManifestCorrupt: a damaged manifest refuses to open — guessing a
// lane count would silently misroute every key.
func TestLanesManifestCorrupt(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLanes(dir, LanesCount(4), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	l.Close()
	path := filepath.Join(dir, laneManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read manifest: %v", err)
	}
	data[6] ^= 0xFF // lane count byte: CRC must catch it
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatalf("write manifest: %v", err)
	}
	if _, err := OpenLanes(dir, LanesWithoutSync()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with corrupt manifest = %v, want ErrCorrupt", err)
	}
}

// TestLanesBadCount rejects non-power-of-two and out-of-range lane counts.
func TestLanesBadCount(t *testing.T) {
	for _, n := range []int{0, -1, 3, 48, maxLaneCount * 2} {
		if _, err := OpenLanes(t.TempDir(), LanesCount(n)); err == nil {
			t.Errorf("OpenLanes(LanesCount(%d)) succeeded, want error", n)
		}
	}
}

// TestLanesFence: fencing the medium fences every lane, and Fenced reports
// it regardless of which lane a probe write lands on.
func TestLanesFence(t *testing.T) {
	l, err := OpenLanes(t.TempDir(), LanesCount(8), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	if err := l.Cell("tx/00000001").Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	l.Fence(nil)
	if err := l.Fenced(); !errors.Is(err, ErrFenced) {
		t.Fatalf("Fenced = %v, want ErrFenced", err)
	}
	for i := 0; i < 32; i++ {
		key := fmt.Sprintf("tx/%08x", i)
		if err := l.Cell(key).Save(99); !errors.Is(err, ErrFenced) {
			t.Fatalf("Save(%s) on fenced medium = %v, want ErrFenced", key, err)
		}
	}
}

// TestLanesCellLaneReporting: a laned cell reports its commit lane (the
// SaverPool routes on it).
func TestLanesCellLaneReporting(t *testing.T) {
	l, err := OpenLanes(t.TempDir(), LanesCount(16), LanesWithoutSync())
	if err != nil {
		t.Fatalf("OpenLanes: %v", err)
	}
	defer l.Close()
	for spi := uint32(0); spi < 256; spi++ {
		key := fmt.Sprintf("tx/%08x", spi)
		if got, want := l.Cell(key).Lane(), l.laneOf(key); got != want {
			t.Fatalf("Cell(%s).Lane() = %d, want %d", key, got, want)
		}
	}
}
