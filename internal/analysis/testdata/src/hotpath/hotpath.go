// Package hotpath exercises the hotpath analyzer: //ring:hotpath
// functions and every module-internal function they statically call
// must be free of heap-allocating constructs.
package hotpath

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"
	"unicode/utf8"
)

type buf struct{ n int }

func (b *buf) get() int { return b.n }

// sink defeats "declared and not used" without allocating.
var sink int

//ring:hotpath
func direct(x int) string {
	return fmt.Sprintf("%d", x) // want `hot path: calls fmt.Sprintf \(formats and allocates\)`
}

//ring:hotpath
func closes(x int) func() int {
	return func() int { return x } // want `hot path: capturing closure \(allocates\)`
}

//ring:hotpath
func boxes(x int) any {
	return x // want `hot path: interface conversion of non-pointer int \(allocates\)`
}

//ring:hotpath
func grows(s []int, x int) []int {
	return append(s, x) // want `hot path: append may grow its backing array \(allocates\)`
}

//ring:hotpath
func news() *buf {
	return new(buf) // want `hot path: new \(allocates\)`
}

//ring:hotpath
func concat(a, b string) string {
	return a + b // want `hot path: string concatenation \(allocates\)`
}

//ring:hotpath
func toBytes(s string) []byte {
	return []byte(s) // want `hot path: conversion string -> \[\]byte copies \(allocates\)`
}

//ring:hotpath
func sliceLit() int {
	return len([]int{1, 2}) // want `hot path: slice literal \(allocates\)`
}

//ring:hotpath
func spawns() {
	go work() // want `hot path: go statement \(spawns a goroutine\)`
}

//ring:hotpath
func methodVal(b *buf) func() int {
	return b.get // want `hot path: method value get \(allocates a closure\)`
}

func variadic(xs ...int) int { return len(xs) }

//ring:hotpath
func callsVariadic() {
	sink = variadic(1, 2, 3) // want `hot path: variadic call materializes its argument slice \(allocates\)`
}

// viaHelper is clean itself; the allocation lives one static call away
// and is charged to the hot caller at the call site.
//
//ring:hotpath
func viaHelper(x int) {
	helper(x) // want `hot path: viaHelper calls hotpath\.helper, which reaches make \(allocates\) at .*hotpath\.go:\d+ \(via hotpath\.helper\)`
}

func helper(x int) {
	sink = len(make([]int, x))
}

// deep reaches its allocation through two non-hot hops; the chain is
// spelled out in the diagnostic.
//
//ring:hotpath
func deep() {
	outer() // want `hot path: deep calls hotpath\.outer, which reaches map literal \(allocates\) at .*hotpath\.go:\d+ \(via hotpath\.outer -> hotpath\.inner\)`
}

func outer() { inner() }

func inner() {
	m := map[int]int{}
	sink = len(m)
}

// The standard library's slice growers allocate as append does, and
// the analyzer follows no call out of the module, so each is banned
// at the call.

//ring:hotpath
func binaryGrows(b []byte, x uint64) []byte {
	b = binary.BigEndian.AppendUint64(b, x) // want `hot path: calls binary\.BigEndian\.AppendUint64: append may grow its backing array \(allocates\)`
	return binary.AppendUvarint(b, x)       // want `hot path: calls binary\.AppendUvarint: append may grow`
}

//ring:hotpath
func byteOrderGrows(o binary.AppendByteOrder, b []byte) []byte {
	return o.AppendUint32(b, 1) // want `hot path: calls o\.AppendUint32: append may grow`
}

//ring:hotpath
func strconvGrows(b []byte, x int64) []byte {
	return strconv.AppendInt(b, x, 10) // want `hot path: calls strconv\.AppendInt: append may grow`
}

//ring:hotpath
func utf8Grows(b []byte, r rune) []byte {
	return utf8.AppendRune(b, r) // want `hot path: calls utf8\.AppendRune: append may grow`
}

//ring:hotpath
func slicesGrow(s []int) []int {
	s = slices.Grow(s, 4)         // want `hot path: calls slices\.Grow: append may grow`
	s = slices.Insert(s, 0, 1, 2) // want `hot path: calls slices\.Insert: append may grow`
	s = slices.Concat(s, s)       // want `hot path: calls slices\.Concat: append may grow`
	s = slices.Clone[[]int](s)    // want `hot path: calls slices\.Clone\[\[\]int\]: append may grow`
	return slices.Clone(s)        // want `hot path: calls slices\.Clone: append may grow`
}

//ring:hotpath
func bytesClone(b []byte) []byte {
	return bytes.Clone(b) // want `hot path: calls bytes\.Clone: append may grow`
}

// viaAppender reaches a standard-library grower through a non-hot
// helper.
//
//ring:hotpath
func viaAppender(b []byte) []byte {
	return appender(b) // want `hot path: viaAppender calls hotpath\.appender, which reaches calls strconv\.AppendBool: append may grow its backing array \(allocates\) at .*hotpath\.go:\d+ \(via hotpath\.appender\)`
}

func appender(b []byte) []byte { return strconv.AppendBool(b, true) }

// ---- negatives: none of the following may be flagged ----

// putInPlace writes into storage the caller sized.
//
//ring:hotpath
func putInPlace(b []byte, x uint64) {
	binary.BigEndian.PutUint64(b, x)
}

// allowedAppend documents its growth with a reason.
//
//ring:hotpath
func allowedAppend(b []byte, x uint64) []byte {
	//ring:allow fixture: amortized growth, measured separately
	return binary.BigEndian.AppendUint64(b, x)
}

// methodCall is a static method call, not a method value.
//
//ring:hotpath
func methodCall(b *buf) int {
	return b.get()
}

// pointerBox stores the pointer directly in the interface word.
//
//ring:hotpath
func pointerBox(b *buf) any {
	return b
}

type empty struct{}

// zeroSize values share the runtime's zero base; boxing them is free.
//
//ring:hotpath
func zeroSize() any {
	return empty{}
}

// spread forwards an existing slice; no argument slice materializes.
//
//ring:hotpath
func spread(xs []int) {
	sink = variadic(xs...)
}

// allowedInline documents its one exception with a mandatory reason.
//
//ring:hotpath
func allowedInline() *buf {
	return new(buf) //ring:allow fixture: documented cold fallback
}

// allowedCallee is hot and verified at its own definition, so hot
// callers trust it rather than re-walking into it.
//
//ring:hotpath
func allowedCallee() []int {
	//ring:allow fixture: cold fallback, measured separately
	return make([]int, 4)
}

//ring:hotpath
func trustsHotCallee() {
	sink = len(allowedCallee())
}

func work() {}
