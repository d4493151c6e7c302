// Package antireplay is a reset-resilient anti-replay sequence-number
// service for IPsec-style protocols, implementing Huang, Gouda and
// Elnozahy, "Convergence of IPsec in Presence of Resets" (ICDCS 2003 /
// Journal of High Speed Networks 15(2), 2006).
//
// # The problem
//
// IPsec's anti-replay service numbers every packet of a security
// association and slides a window of recently seen numbers at the receiver.
// Both counters live in volatile memory: if either peer crashes and
// reboots ("resets"), the state is gone, and the standard's remedy is to
// tear down and renegotiate the whole SA with IKE. Without that remedy the
// protocol fails unboundedly: a reset receiver accepts every replayed
// packet, and a reset sender has all its fresh packets discarded.
//
// # The protocol
//
// The paper adds two operations. SAVE persists the counter to stable
// storage in the background once every K messages; FETCH reloads it at
// boot. A wake-up adds a leap of 2K to the fetched value — covering the at
// most 2K numbers that a save-in-flight can be behind — synchronously
// SAVEs the leaped value, and only then resumes. The guarantees (§5):
//
//   - a sender reset wastes at most 2·Kp sequence numbers and causes no
//     fresh discards (absent reordering across the reset);
//   - a receiver reset sacrifices at most 2·Kq fresh messages;
//   - no replayed message is ever accepted, in any reset/replay schedule.
//
// # Using the package
//
// A Sender hands out sequence numbers; a Receiver admits them through an
// anti-replay window. Both take a Store (persistent cell) and optionally a
// BackgroundSaver. The zero-fuss constructors wire a file-backed store with
// background (goroutine) saves:
//
//	snd, saver, err := antireplay.NewFileSender("/var/lib/sa/tx.seq", 25)
//	...
//	seq, err := snd.Next()          // number an outgoing packet
//	...
//	snd.Reset()                     // crash (or process restart detected)
//	snd.Wake()                      // FETCH + leap + SAVE, then resume
//
// The ipsec-flavoured types (OutboundSA, InboundSA, SAD, SPD) bind the
// sequence-number service to an ESP-like packet format with HMAC-SHA256-96
// integrity and AES-CTR confidentiality; EstablishSA runs a miniature IKE
// handshake to derive keys; the DPD types implement dead-peer detection and
// the paper's §6 prolonged-reset recovery; Peer composes all of it into a
// host-level association with automatic recovery and rekeying.
//
// At gateway scale the per-SA file-and-goroutine pattern does not hold up:
// a Lanes medium multiplexes every SA's counter into append-only commit-lane
// logs with group-committed fsyncs, a SaverPool bounds the background-save
// workers, and Gateway binds a lock-striped SAD and an SPD to both (see
// README.md, "Journal design notes").
//
// The per-packet datapath is concurrency-first. NewAtomicWindow (or
// ReceiverConfig.Concurrent) selects a Linux-xfrm/WireGuard-style
// anti-replay window whose admissions are CAS- and fetch-OR-based, and the
// Receiver then runs a lock-minimizing fast path: concurrent Admits never
// serialize on the receiver mutex, which is reserved for reset/wake
// transitions and SAVE triggers. The batched entry points —
// OutboundSA.SealBatch and Sender.NextN outbound, InboundSA.VerifyBatch
// and Gateway.VerifyBatch/SealBatch inbound — amortize lock acquisitions,
// lifetime checks, and save triggers across a packet burst, returning
// per-packet VerifyResult values. Sequence exhaustion is a hard error: a
// non-ESN outbound SA refuses to wrap the 32-bit wire sequence number
// (ErrSeqExhausted) instead of silently reusing it, per RFC 4303.
//
// The paper's receiver-side theorem additionally requires that the window
// edge advance at most Kq numbers per save interval — an assumption message
// loss can break (see README.md's analysis-gap note and the "horizon"
// experiment). The StrictHorizon option (default in Peer and Gateway)
// removes the assumption by never delivering at or beyond committed+leap,
// making the no-duplicate-delivery guarantee unconditional.
//
// For high availability a Standby replicates a gateway's Lanes medium into
// a follower medium, lane by lane (snapshot-then-tail over each lane's
// committed record stream, registered as the lane's sync follower so
// replication joins fsync in the durability contract) and keeps a warm, down-state image of the SA
// population (Gateway.Snapshot / Standby.Mirror). Standby.Takeover is the
// epoch-fenced promotion: fence the deposed journal, drain the stream,
// durably bump the cluster epoch, and wake every SA from its replicated
// counter — the paper's wake-up, pointed at the replica, so the no-reuse
// and no-replay guarantees carry over to failover verbatim (see README.md,
// "High availability").
//
// Everything is deterministic under the simulation engine (Engine,
// SimSaver) used by the experiment harness that regenerates the paper's
// figures; see README.md and the experiments package in the repository.
package antireplay
