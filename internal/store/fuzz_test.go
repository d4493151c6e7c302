package store

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFileFetch throws arbitrary file contents at the record parser: it
// must never panic, and it must never return a valid value from a record
// that was not produced by Save (magic+version+CRC make that overwhelmingly
// unlikely; the fuzzer verifies we at least validate length and magic).
func FuzzFileFetch(f *testing.F) {
	// Seed with a genuine record and simple corruptions.
	dir, err := os.MkdirTemp("", "fuzzstore-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	seedPath := filepath.Join(dir, "seed.dat")
	if err := NewFile(seedPath).Save(12345); err != nil {
		f.Fatal(err)
	}
	genuine, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(genuine)
	f.Add([]byte{})
	f.Add([]byte("ARSQ"))
	f.Add(make([]byte, recordLen))

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "seq.dat")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Skip()
		}
		v, ok, err := NewFile(path).Fetch()
		if err != nil {
			return // rejected: fine
		}
		if !ok {
			t.Fatal("Fetch returned ok=false with nil error for an existing file")
		}
		// If accepted, the record must round-trip exactly.
		if len(raw) != recordLen {
			t.Fatalf("accepted record of length %d", len(raw))
		}
		if string(raw[0:4]) != fileMagic {
			t.Fatalf("accepted record with magic %q", raw[0:4])
		}
		_ = v
	})
}

// fuzzJournalBytes builds a genuine journal file image: header plus the
// given records in the current frame format.
func fuzzJournalBytes(f *testing.F, recs map[string]uint64) []byte {
	f.Helper()
	dir, err := os.MkdirTemp("", "fuzzjournal-*")
	if err != nil {
		f.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.journal")
	j, err := openSegment(path, LanesWithoutSync())
	if err != nil {
		f.Fatal(err)
	}
	for k, v := range recs {
		if err := j.Cell(k).Save(v); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzJournalReplay feeds arbitrary bytes to the journal recovery path,
// the frame decoder the stealth-reset story leans on hardest (a crashed
// gateway trusts whatever this parser accepts). Invariants:
//
//   - openJournal never panics, whatever the file holds;
//   - a frame parseFrame accepts re-encodes canonically to the exact
//     bytes it was decoded from (accepting a non-canonical or truncated
//     frame would let crafted corruption alias a different record);
//   - when an open succeeds, the journal is actually usable: a fresh
//     save round-trips through close/reopen, and no key recovered by the
//     first open rolls back to a smaller value — recovery is monotone.
func FuzzJournalReplay(f *testing.F) {
	f.Add(fuzzJournalBytes(f, map[string]uint64{"tx/a": 123, "rx/a": 99}))
	f.Add(fuzzJournalBytes(f, nil))
	truncated := fuzzJournalBytes(f, map[string]uint64{"tx/torn": 1 << 40})
	f.Add(truncated[:len(truncated)-3])
	flipped := fuzzJournalBytes(f, map[string]uint64{"tx/bit": 7})
	if len(flipped) > journalHeaderLen+4 {
		flipped[journalHeaderLen+4] ^= 0x40
	}
	f.Add(flipped)
	f.Add([]byte("ARJL"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		// Property 1: canonical re-encode of any accepted frame, in both
		// on-disk format versions.
		for _, ver := range []uint16{journalVersion1, journalVersion} {
			if key, v, del, n, ok := parseFrame(ver, raw); ok {
				re := appendRecord(ver, nil, string(key), v, del)
				if !bytes.Equal(re, raw[:n]) {
					t.Fatalf("ver %d: accepted frame is not canonical:\n got  % x\n want % x", ver, raw[:n], re)
				}
			}
		}

		// Property 2: recovery accepts or rejects, but never panics and
		// never hands back a broken journal.
		path := filepath.Join(t.TempDir(), "seq.journal")
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			t.Skip()
		}
		j, err := openSegment(path, LanesWithoutSync())
		if err != nil {
			return // rejected: fine
		}
		j.mu.Lock()
		before := j.valsSnapshot()
		j.mu.Unlock()
		if err := j.Cell("fz/probe").Save(42); err != nil {
			t.Fatalf("opened journal refuses a save: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		j2, err := openSegment(path, LanesWithoutSync())
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		defer j2.Close()
		j2.mu.Lock()
		after := j2.valsSnapshot()
		j2.mu.Unlock()
		if after["fz/probe"] != 42 {
			t.Fatalf("saved record lost across reopen: %v", after["fz/probe"])
		}
		for k, v := range before {
			if after[k] < v {
				t.Fatalf("key %q rolled back across reopen: %d -> %d", k, v, after[k])
			}
		}
	})
}
