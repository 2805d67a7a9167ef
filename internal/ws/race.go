//go:build race

package ws

import "sync/atomic"

// ioSync carries, in race-detector builds, the happens-before edge a
// socket gives between a write and the read that receives its bytes.
// The detector takes that edge from annotations on syscall.Write and
// syscall.Read; the writev behind net.Buffers has none, so without
// ioSync state published before a vectored write would look unordered
// with its use after the peer read the frame.
var ioSync atomic.Uint64

// releaseIO runs before a vectored write.
func releaseIO() { ioSync.Add(1) }

// acquireIO runs after a frame read.
func acquireIO() { ioSync.Load() }
