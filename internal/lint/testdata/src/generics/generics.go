// Package generics exercises the lint driver and every flow analyzer on
// type-parameterized code: instantiation expressions (IndexExpr /
// IndexListExpr callees), generic receivers, and channels of type
// parameters must all flow through the CFG builder and the dataflow
// engine without panics — and the analyzers must still see through the
// instantiation to the underlying operation.
package generics

import (
	"context"
	"time"
)

// Pipe is a generic channel wrapper.
type Pipe[T any] struct {
	ch chan T
}

// NewPipe instantiates with a buffered channel.
func NewPipe[T any](n int) *Pipe[T] {
	return &Pipe[T]{ch: make(chan T, n)}
}

// Send on a generic method: the element type is a type parameter.
func (p *Pipe[T]) Send(v T) {
	p.ch <- v
}

// first is a generic helper used through explicit instantiation below.
func first[T any](ch chan T) T {
	return <-ch
}

// pair needs two type arguments, forcing an IndexListExpr at the call.
func pair[A, B any](a A, b B) (A, B) { return a, b }

// UseInstantiated calls generic functions through explicit instantiation
// — the calleeFunc unwrap must resolve through ast.IndexExpr and
// ast.IndexListExpr, and ctxflow must still flag the blocking receive
// hidden behind neither (the plain time.Sleep).
func UseInstantiated(ctx context.Context, ch chan int) {
	f := first[int]
	_ = f
	a, b := pair[int, string](1, "x")
	_, _ = a, b
	time.Sleep(time.Millisecond) // want "time.Sleep blocks with no prior ctx check"
}

// SpawnGeneric launches a goroutine that blocks on a chan-of-type-param:
// leak must handle the generic element type without panicking and still
// report the unbuffered send.
func SpawnGeneric[T any](ch chan T, v T) {
	go func() {
		ch <- v // want "sends on unbuffered channel ch outside a select"
	}()
}

// Drain ranges over a generic channel in a ctx-carrying function after a
// proper guard: clean.
func Drain[T any](ctx context.Context, ch chan T) []T {
	var out []T
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return out
			}
			out = append(out, v)
		case <-ctx.Done():
			return out
		}
	}
}
