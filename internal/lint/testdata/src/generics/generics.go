// Package generics exercises lint.Run and the analyzers on
// type-parameterized code: instantiation expressions (IndexExpr /
// IndexListExpr callees), generic receivers, and channels of type
// parameters must type-check and pass through every analyzer without
// panics or findings.
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
// ast.IndexListExpr.
func UseInstantiated(ctx context.Context, ch chan int) {
	f := first[int]
	_ = f
	a, b := pair[int, string](1, "x")
	_, _ = a, b
	time.Sleep(time.Millisecond)
}

// SpawnGeneric launches a goroutine that sends on a chan-of-type-param.
func SpawnGeneric[T any](ch chan T, v T) {
	go func() {
		ch <- v
	}()
}

// Drain receives from a generic channel in a select with a ctx case.
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
