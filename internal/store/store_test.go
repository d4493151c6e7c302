package store

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestMemEmptyFetch(t *testing.T) {
	var m Mem
	v, ok, err := m.Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if ok || v != 0 {
		t.Errorf("Fetch on empty = (%d, %v), want (0, false)", v, ok)
	}
}

func TestMemSaveFetch(t *testing.T) {
	var m Mem
	if err := m.Save(42); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v, ok, err := m.Fetch()
	if err != nil || !ok || v != 42 {
		t.Errorf("Fetch = (%d, %v, %v), want (42, true, nil)", v, ok, err)
	}
	if err := m.Save(7); err != nil {
		t.Fatalf("Save: %v", err)
	}
	v, _, _ = m.Fetch()
	if v != 7 {
		t.Errorf("Fetch after overwrite = %d, want 7", v)
	}
	if m.Saves() != 2 {
		t.Errorf("Saves = %d, want 2", m.Saves())
	}
	if m.Fetches() != 2 {
		t.Errorf("Fetches = %d, want 2", m.Fetches())
	}
}

func TestMemConcurrent(t *testing.T) {
	var m Mem
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				_ = m.Save(uint64(g*1000 + i))
				_, _, _ = m.Fetch()
			}
		}(g)
	}
	wg.Wait()
	if m.Saves() != 4000 {
		t.Errorf("Saves = %d, want 4000", m.Saves())
	}
}

func TestMemSaveFetchRoundtripProperty(t *testing.T) {
	f := func(v uint64) bool {
		var m Mem
		if err := m.Save(v); err != nil {
			return false
		}
		got, ok, err := m.Fetch()
		return err == nil && ok && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func fileStore(t *testing.T) *File {
	t.Helper()
	return NewFile(filepath.Join(t.TempDir(), "seq.dat"))
}

func TestFileEmptyFetch(t *testing.T) {
	f := fileStore(t)
	v, ok, err := f.Fetch()
	if err != nil {
		t.Fatalf("Fetch: %v", err)
	}
	if ok || v != 0 {
		t.Errorf("Fetch on missing file = (%d, %v), want (0, false)", v, ok)
	}
}

func TestFileSaveFetch(t *testing.T) {
	f := fileStore(t)
	for _, v := range []uint64{1, 0, 1 << 60, ^uint64(0)} {
		if err := f.Save(v); err != nil {
			t.Fatalf("Save(%d): %v", v, err)
		}
		got, ok, err := f.Fetch()
		if err != nil || !ok || got != v {
			t.Errorf("Fetch = (%d, %v, %v), want (%d, true, nil)", got, ok, err, v)
		}
	}
}

func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seq.dat")
	if err := NewFile(path).Save(123); err != nil {
		t.Fatalf("Save: %v", err)
	}
	// A new File value over the same path models the post-reset FETCH.
	got, ok, err := NewFile(path).Fetch()
	if err != nil || !ok || got != 123 {
		t.Errorf("Fetch after reopen = (%d, %v, %v), want (123, true, nil)", got, ok, err)
	}
}

func TestFileCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seq.dat")
	f := NewFile(path)
	if err := f.Save(99); err != nil {
		t.Fatalf("Save: %v", err)
	}

	tests := []struct {
		name    string
		corrupt func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:10] }},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }},
		{"bad version", func(b []byte) []byte { binary.BigEndian.PutUint16(b[4:6], 9); return b }},
		{"flipped value bit", func(b []byte) []byte { b[9] ^= 0x01; return b }},
		{"flipped crc bit", func(b []byte) []byte { b[recordLen-1] ^= 0x01; return b }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			buf := make([]byte, len(orig))
			copy(buf, orig)
			if err := os.WriteFile(path, tt.corrupt(buf), 0o600); err != nil {
				t.Fatalf("write corrupt: %v", err)
			}
			_, _, err = f.Fetch()
			if !errors.Is(err, ErrCorrupt) {
				t.Errorf("Fetch on %s = %v, want ErrCorrupt", tt.name, err)
			}
			if err := os.WriteFile(path, orig, 0o600); err != nil {
				t.Fatalf("restore: %v", err)
			}
		})
	}
}

func TestFileNoTempLeftovers(t *testing.T) {
	dir := t.TempDir()
	f := NewFile(filepath.Join(dir, "seq.dat"))
	for i := uint64(0); i < 10; i++ {
		if err := f.Save(i); err != nil {
			t.Fatalf("Save: %v", err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("directory has %d entries %v, want just seq.dat", len(entries), names)
	}
}

// TestFileSaveSyncsDirectory: the rename that commits a save is itself only
// durable once the parent directory is synced; Save must issue both fsyncs
// (temp file + directory) unless WithoutSync.
func TestFileSaveSyncsDirectory(t *testing.T) {
	f := fileStore(t)
	if err := f.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := f.Syncs(); got != 2 {
		t.Errorf("Syncs after one save = %d, want 2 (temp file + directory)", got)
	}
	if err := f.Save(2); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := f.Syncs(); got != 4 {
		t.Errorf("Syncs after two saves = %d, want 4", got)
	}
}

func TestFileWithoutSyncNoSyncs(t *testing.T) {
	f := NewFile(filepath.Join(t.TempDir(), "seq.dat"), WithoutSync())
	if err := f.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := f.Syncs(); got != 0 {
		t.Errorf("Syncs with WithoutSync = %d, want 0", got)
	}
}

func TestFileWithoutSync(t *testing.T) {
	f := NewFile(filepath.Join(t.TempDir(), "seq.dat"), WithoutSync())
	if err := f.Save(5); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, ok, err := f.Fetch()
	if err != nil || !ok || got != 5 {
		t.Errorf("Fetch = (%d, %v, %v), want (5, true, nil)", got, ok, err)
	}
}

func TestFileConcurrent(t *testing.T) {
	f := fileStore(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := f.Save(uint64(g*100 + i)); err != nil {
					t.Errorf("Save: %v", err)
					return
				}
				if _, _, err := f.Fetch(); err != nil {
					t.Errorf("Fetch: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Whatever interleaving happened, the record must be valid.
	if _, ok, err := f.Fetch(); err != nil || !ok {
		t.Errorf("final Fetch = (ok=%v, err=%v), want valid record", ok, err)
	}
}

func TestFaultyFailSaves(t *testing.T) {
	var m Mem
	f := NewFaulty(&m)
	f.FailSaves(2)
	if err := f.Save(1); !errors.Is(err, ErrInjected) {
		t.Errorf("Save 1 = %v, want ErrInjected", err)
	}
	if err := f.Save(2); !errors.Is(err, ErrInjected) {
		t.Errorf("Save 2 = %v, want ErrInjected", err)
	}
	if err := f.Save(3); err != nil {
		t.Errorf("Save 3 = %v, want nil", err)
	}
	v, ok := m.Peek()
	if !ok || v != 3 {
		t.Errorf("Peek = (%d, %v), want (3, true)", v, ok)
	}
}

func TestFaultyLoseSaves(t *testing.T) {
	var m Mem
	f := NewFaulty(&m)
	if err := f.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
	f.LoseSaves(1)
	if err := f.Save(2); err != nil {
		t.Errorf("lost Save should report success, got %v", err)
	}
	v, _, _ := f.Fetch()
	if v != 1 {
		t.Errorf("Fetch = %d, want stale 1 (save was lost)", v)
	}
	if f.LostSaves() != 1 {
		t.Errorf("LostSaves = %d, want 1", f.LostSaves())
	}
}

func TestFaultyCorruptFetches(t *testing.T) {
	var m Mem
	_ = m.Save(9)
	f := NewFaulty(&m)
	f.CorruptFetches(1)
	if _, _, err := f.Fetch(); !errors.Is(err, ErrInjected) {
		t.Errorf("Fetch = %v, want ErrInjected", err)
	}
	v, ok, err := f.Fetch()
	if err != nil || !ok || v != 9 {
		t.Errorf("second Fetch = (%d, %v, %v), want (9, true, nil)", v, ok, err)
	}
}

func TestLatentDelays(t *testing.T) {
	var m Mem
	l := NewLatent(&m, 20*time.Millisecond)
	start := time.Now()
	if err := l.Save(3); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 20*time.Millisecond {
		t.Errorf("Save returned after %v, want >= 20ms", elapsed)
	}
	v, ok, err := l.Fetch()
	if err != nil || !ok || v != 3 {
		t.Errorf("Fetch = (%d, %v, %v), want (3, true, nil)", v, ok, err)
	}
}

func TestLatentZeroDelay(t *testing.T) {
	var m Mem
	l := NewLatent(&m, 0)
	if err := l.Save(1); err != nil {
		t.Fatalf("Save: %v", err)
	}
}
