package antireplay

import (
	"antireplay/internal/store"
	"antireplay/internal/storefault"
)

// Storage fault-domain types, re-exported from the implementation. The
// storefault layer sits under every durable medium (FileStore, Journal,
// Lanes): the media perform their filesystem operations through FaultFS, so
// a scheduled Injector can fail an exact fsync, tear a write short, or break
// a rename — the failure classes the lane-quarantine machinery exists to
// contain.
type (
	// FaultFS is the filesystem surface the durable media use; the default
	// is the zero-cost OS passthrough, tests swap in a FaultInjector.
	FaultFS = storefault.FS
	// FaultFile is the os.File-shaped handle FaultFS hands out.
	FaultFile = storefault.File
	// FaultInjector is a FaultFS applying a fault schedule over a base FS.
	FaultInjector = storefault.Injector
	// Fault is one scheduled fault: the Count operations of kind Op whose
	// path contains Path, after the first After matches, fail with Err.
	Fault = storefault.Fault
	// FaultOp names the operation class a Fault targets.
	FaultOp = storefault.Op
	// LaneStatus is one lane's fault-domain state: its index and the sticky
	// I/O error that quarantined it (nil while healthy).
	LaneStatus = store.LaneStatus
	// SaveRetry is a SaverPool's bounded retry policy for failed saves.
	SaveRetry = store.SaveRetry
)

// Fault operation classes.
const (
	// FaultWrite targets file writes (fail outright or tear short).
	FaultWrite = storefault.OpWrite
	// FaultSync targets fsync — the fsyncgate fault: a failed sync leaves
	// the page cache undefined, so the journal poisons instead of retrying.
	FaultSync = storefault.OpSync
	// FaultOpen targets opening a file.
	FaultOpen = storefault.OpOpen
	// FaultCreate targets temp-file creation (compaction).
	FaultCreate = storefault.OpCreate
	// FaultRead targets whole-file reads (recovery).
	FaultRead = storefault.OpRead
	// FaultRename targets the atomic replace that publishes a compaction.
	FaultRename = storefault.OpRename
	// FaultRemove targets file deletion (stale-temp sweeps).
	FaultRemove = storefault.OpRemove
	// FaultSyncDir targets the parent-directory fsync after a rename.
	FaultSyncDir = storefault.OpSyncDir
)

// Storage fault errors.
var (
	// ErrInjected is the default error produced by fault injection, shared
	// by FaultyStore and FaultInjector.
	ErrInjected = store.ErrInjected
	// ErrSaveRetriesExhausted wraps the final error of a save the
	// SaverPool's bounded retry gave up on; the SA then stalls at its
	// durable horizon instead of advancing on unsaved state.
	ErrSaveRetriesExhausted = store.ErrSaveRetriesExhausted
)

// NewFaultInjector wraps base (nil means the OS passthrough) with an empty
// fault schedule; Arm faults on it and pass it to the media via
// FileWithFS/LanesWithFS.
func NewFaultInjector(base FaultFS) *FaultInjector {
	return storefault.NewInjector(base)
}

// OSFaultFS returns the default passthrough FaultFS over the real
// filesystem.
func OSFaultFS() FaultFS { return storefault.OS() }

// FileWithFS routes a FileStore's filesystem operations through fsys.
func FileWithFS(fsys FaultFS) FileStoreOption { return store.FileWithFS(fsys) }

// LanesWithFS routes every lane's filesystem operations through fsys.
func LanesWithFS(fsys FaultFS) LanesOption { return store.LanesWithFS(fsys) }

// LanesOnPoison registers a callback invoked once per lane quarantine (fsync
// failure, unrescued write failure, or a failed compaction publish) with
// the lane index and the sticky error — the hook the telemetry layer's lane
// fault events hang off.
func LanesOnPoison(fn func(lane int, err error)) LanesOption {
	return store.LanesOnPoison(fn)
}

// DefaultSaveRetry is the retry policy a new SaverPool starts with: a
// couple of quick jittered retries absorb blips, anything longer-lived
// fails fast so the horizon stall takes over.
func DefaultSaveRetry() SaveRetry { return store.DefaultSaveRetry() }
