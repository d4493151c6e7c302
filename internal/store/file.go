package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"

	"antireplay/internal/storefault"
)

// File record layout (big endian):
//
//	offset 0  4 bytes  magic "ARSQ"
//	offset 4  2 bytes  version (1)
//	offset 6  8 bytes  sequence number
//	offset 14 4 bytes  CRC-32 (IEEE) of bytes [0,14)
const (
	fileMagic   = "ARSQ"
	fileVersion = 1
	recordLen   = 18
)

// File is a Store backed by a single file. Save is crash-safe: the record is
// written to a temporary file, synced, atomically renamed over the
// destination, and the parent directory is synced so the rename itself
// survives a power loss — a reset at any point leaves a previous record
// intact, the persistent-memory property the paper assumes. Fetch validates
// a magic number, version, and CRC and returns ErrCorrupt on mismatch.
//
// File is safe for concurrent use.
type File struct {
	mu    sync.Mutex
	path  string
	fs    storefault.FS
	sync  bool
	syncs uint64
}

var _ Store = (*File)(nil)

// FileOption configures a File store.
type FileOption func(*File)

// WithoutSync disables the per-save fsync. This trades the durability
// guarantee for speed; a power loss (though not a process crash) may then
// lose the latest save. Used to measure the cost of the sync itself.
func WithoutSync() FileOption {
	return func(f *File) { f.sync = false }
}

// FileWithFS routes the store's filesystem operations through fsys; see
// LanesWithFS. A nil fsys keeps the default passthrough.
func FileWithFS(fsys storefault.FS) FileOption {
	return func(f *File) {
		if fsys != nil {
			f.fs = fsys
		}
	}
}

// NewFile returns a file-backed store at path. The file need not exist;
// Fetch on a missing file reports ok=false.
func NewFile(path string, opts ...FileOption) *File {
	f := &File{path: path, fs: storefault.OS(), sync: true}
	for _, o := range opts {
		o(f)
	}
	return f
}

// Path returns the backing file path.
func (f *File) Path() string { return f.path }

// Save atomically persists v.
func (f *File) Save(v uint64) error {
	f.mu.Lock()
	defer f.mu.Unlock()

	rec := make([]byte, recordLen)
	copy(rec[0:4], fileMagic)
	binary.BigEndian.PutUint16(rec[4:6], fileVersion)
	binary.BigEndian.PutUint64(rec[6:14], v)
	binary.BigEndian.PutUint32(rec[14:18], crc32.ChecksumIEEE(rec[:14]))

	dir := filepath.Dir(f.path)
	tmp, err := f.fs.CreateTemp(dir, filepath.Base(f.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: create temp: %w", err)
	}
	tmpName := tmp.Name()
	// Clean the temp file up on any failure path.
	fail := func(step string, cause error) error {
		tmp.Close()
		f.fs.Remove(tmpName)
		return fmt.Errorf("store: %s: %w", step, cause)
	}
	if _, err := tmp.Write(rec); err != nil {
		return fail("write temp", err)
	}
	if f.sync {
		if err := tmp.Sync(); err != nil {
			return fail("sync temp", err)
		}
		f.syncs++
	}
	if err := tmp.Close(); err != nil {
		return fail("close temp", err)
	}
	if err := f.fs.Rename(tmpName, f.path); err != nil {
		f.fs.Remove(tmpName)
		return fmt.Errorf("store: rename: %w", err)
	}
	if f.sync {
		// The rename is only on the platter once the directory is synced;
		// without this a power loss can roll the path back to the old
		// record — or to nothing — after Save already reported success.
		if err := syncDir(f.fs, dir); err != nil {
			return err
		}
		f.syncs++
	}
	return nil
}

// Syncs returns the number of fsync calls Save has issued (temp-file and
// directory syncs both count).
func (f *File) Syncs() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.syncs
}

// Fetch reads and validates the persisted record.
func (f *File) Fetch() (uint64, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	rec, err := f.fs.ReadFile(f.path)
	if os.IsNotExist(err) {
		return 0, false, nil
	}
	if err != nil {
		return 0, false, fmt.Errorf("store: read: %w", err)
	}
	if len(rec) != recordLen {
		return 0, false, fmt.Errorf("%w: length %d, want %d", ErrCorrupt, len(rec), recordLen)
	}
	if string(rec[0:4]) != fileMagic {
		return 0, false, fmt.Errorf("%w: bad magic %q", ErrCorrupt, rec[0:4])
	}
	if ver := binary.BigEndian.Uint16(rec[4:6]); ver != fileVersion {
		return 0, false, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, ver, fileVersion)
	}
	want := binary.BigEndian.Uint32(rec[14:18])
	if got := crc32.ChecksumIEEE(rec[:14]); got != want {
		return 0, false, fmt.Errorf("%w: crc %08x, want %08x", ErrCorrupt, got, want)
	}
	return binary.BigEndian.Uint64(rec[6:14]), true, nil
}
