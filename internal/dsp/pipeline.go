package dsp

import (
	"context"
	"sync"
)

// Streaming pipeline with back-pressure (Sec. 6.1: "Each two adjacent
// blocks share a buffer with a back-pressure mechanism to manage data
// flow"). Stages are goroutines connected by bounded channels: when a
// downstream stage stalls, the bounded buffer fills and the upstream
// stage blocks, exactly like the shared ring buffers in the paper's
// C++ reader.

// Block is one chunk of samples flowing through the pipeline.
type Block []float64

// Stage transforms one chunk. Stages run concurrently; each instance
// processes chunks in order.
type Stage func(Block) Block

// Pipeline is a chain of stages with bounded buffers between them.
type Pipeline struct {
	stages  []Stage
	bufSize int
	pool    blockPool
}

// blockPool is a deterministic free list of chunk buffers: a
// mutex-guarded stack rather than a sync.Pool, so recycling does not
// depend on GC timing and steady-state allocation counts are stable
// enough to assert in benchmarks. The sink returns every block it has
// consumed; the source reuses the largest-capacity free block that
// fits. With in-place stages the whole stream converges to a handful of
// buffers regardless of signal length.
type blockPool struct {
	mu   sync.Mutex
	free []Block
}

// get returns a zero-length block with capacity >= n, reusing a free one
// when possible.
func (p *blockPool) get(n int) Block {
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if cap(p.free[i]) >= n {
			b := p.free[i]
			p.free[i] = p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			p.mu.Unlock()
			return b[:0]
		}
	}
	p.mu.Unlock()
	return make(Block, 0, n)
}

// put returns a consumed block to the free list.
func (p *blockPool) put(b Block) {
	if cap(b) == 0 {
		return
	}
	p.mu.Lock()
	p.free = append(p.free, b[:0])
	p.mu.Unlock()
}

// NewPipeline builds a pipeline; bufSize is the per-link buffer depth
// (the back-pressure window), minimum 1.
func NewPipeline(bufSize int, stages ...Stage) *Pipeline {
	if bufSize < 1 {
		bufSize = 1
	}
	return &Pipeline{stages: stages, bufSize: bufSize}
}

// Run consumes blocks from in and delivers processed blocks on the
// returned channel, which closes when in closes or ctx is cancelled.
// Each stage runs in its own goroutine.
func (p *Pipeline) Run(ctx context.Context, in <-chan Block) <-chan Block {
	cur := in
	for _, st := range p.stages {
		next := make(chan Block, p.bufSize)
		go func(st Stage, in <-chan Block, out chan<- Block) {
			defer close(out)
			for {
				select {
				case <-ctx.Done():
					return
				case b, ok := <-in:
					if !ok {
						return
					}
					select {
					case <-ctx.Done():
						return
					case out <- st(b):
					}
				}
			}
		}(st, cur, next)
		cur = next
	}
	return cur
}

// ProcessAll pushes a whole signal through the pipeline in chunks of
// chunkSize and returns the concatenated output.
func (p *Pipeline) ProcessAll(signal []float64, chunkSize int) []float64 {
	return p.ProcessAllInto(nil, signal, chunkSize)
}

// ProcessAllInto is ProcessAll appending into dst. Chunk buffers come
// from the pipeline's free list and every block arriving at the sink is
// recycled, so with in-place stages, a dst of sufficient capacity, and a
// warm pool, a steady-state call allocates only the fixed Run plumbing
// (channels and goroutines), independent of signal length.
func (p *Pipeline) ProcessAllInto(dst, signal []float64, chunkSize int) []float64 {
	if chunkSize < 1 {
		chunkSize = len(signal)
		if chunkSize == 0 {
			return dst
		}
	}
	in := make(chan Block, p.bufSize)
	ctx := context.Background()
	out := p.Run(ctx, in)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range out {
			dst = append(dst, b...)
			p.pool.put(b)
		}
	}()
	for off := 0; off < len(signal); off += chunkSize {
		end := off + chunkSize
		if end > len(signal) {
			end = len(signal)
		}
		chunk := p.pool.get(end - off)
		chunk = append(chunk, signal[off:end]...)
		in <- chunk
	}
	close(in)
	wg.Wait()
	return dst
}
