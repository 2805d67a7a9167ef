//go:build !race

package ws

// Outside race-detector builds the kernel orders a socket's writes
// before the reads that receive them; nothing needs annotating.

func releaseIO() {}
func acquireIO() {}
