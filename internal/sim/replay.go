package sim

// Buffered trace replay. Every figure's innermost loop used to call
// Generator.Next once per reference; replay instead fills a reusable
// chunk buffer (Generator.Fill) and walks it, so the generator's state
// stays hot and the loop body is a plain slice scan. Chunking cannot
// change any result: Fill is exactly n sequential Next calls, so the
// reference stream — and with it every TLB and page-table interaction —
// is identical at any chunk size.

import (
	"context"

	"clusterpt/internal/addr"
	"clusterpt/internal/trace"
)

// replayChunk is the references generated per Fill. Large enough to
// amortize loop setup, small enough to stay cache-resident (32KB).
const replayChunk = 4096

// ReplayBuf is one reusable replay chunk. The engine hands each worker
// one, so a worker's cells share the chunk for the whole run; a nil
// *ReplayBuf still works and allocates per replay. The chunk is an
// array, so its capacity is replayChunk by construction: Fill clamps
// to the capacity it is given, and a shorter chunk would silently
// shorten every later replay on the worker. Not safe for concurrent
// use.
type ReplayBuf struct {
	chunk [replayChunk]addr.V
}

// replay streams refs references from gen through step in buffered
// chunks. step returning an error aborts the replay.
func replay(gen *trace.Generator, buf *ReplayBuf, refs int, step func(addr.V) error) error {
	if buf == nil {
		buf = new(ReplayBuf)
	}
	for refs > 0 {
		n := replayChunk
		if n > refs {
			n = refs
		}
		for _, va := range gen.Fill(buf.chunk[:0], n) {
			if err := step(va); err != nil {
				return err
			}
		}
		refs -= n
	}
	return nil
}

// replayBufKey carries a per-worker ReplayBuf through a context.
type replayBufKey struct{}

// WithReplayBuf attaches a fresh ReplayBuf to ctx. The engine calls it
// once per worker goroutine so all cells that worker runs share one
// buffer; the buffer is not safe for concurrent use.
func WithReplayBuf(ctx context.Context) context.Context {
	return context.WithValue(ctx, replayBufKey{}, &ReplayBuf{})
}

// ReplayBufFrom returns the context's ReplayBuf, or nil (callers and
// replay treat nil as "allocate locally").
func ReplayBufFrom(ctx context.Context) *ReplayBuf {
	b, _ := ctx.Value(replayBufKey{}).(*ReplayBuf)
	return b
}
