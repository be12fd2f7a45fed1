package server

import (
	"encoding/binary"
	"math/bits"
)

// The JSON check on stored values.
//
// A node stores a pushed or filled value without asking anyone, which is
// safe only because it checks what it stores: POST /v1/results is open to
// any client, and a value that is not JSON would be refused by every
// replica it is later pushed to. validJSON is that check. Its verdict is
// encoding/json.Valid's for every input — FuzzValidJSON compares the two —
// and it runs without the standard scanner's per-byte state-function call:
// string bodies are scanned eight bytes at a time, digits and whitespace in
// tight loops, and the nesting stack lives in a fixed buffer until a value
// nests deeper than it.

// maxNesting is encoding/json's nesting limit: a value may open 10000
// arrays and objects inside one another, and opening one more fails, even
// an empty one.
const maxNesting = 10000

// spaceMask has bit c set for each byte c that JSON counts as whitespace:
// space, tab, LF and CR, and nothing else.
const spaceMask uint64 = 1<<' ' | 1<<'\t' | 1<<'\n' | 1<<'\r'

func isSpace(c byte) bool { return c <= ' ' && spaceMask>>c&1 != 0 }

const (
	lsb = 0x0101010101010101
	msb = 0x8080808080808080
)

// stringStop flags the bytes of w, eight string bytes loaded little-endian,
// that a string scan must stop at: '"', '\\' and bytes below 0x20. The
// flags are the high bits of the SWAR tests "byte below n" and "byte
// equal to n". A borrow only runs from a lower byte to a higher one, so a
// flag can be spurious only above a true one: the lowest flag always marks
// the first stop byte, and w has none when the result is 0.
func stringStop(w uint64) uint64 {
	q := w ^ lsb*'"'
	s := w ^ lsb*'\\'
	return ((w-lsb*0x20)&^w | (q-lsb)&^q | (s-lsb)&^s) & msb
}

// isHex reports whether c is a hex digit of a \u escape.
func isHex(c byte) bool { return c-'0' < 10 || (c|0x20)-'a' < 6 }

// validJSON reports whether b is exactly one JSON value surrounded by
// optional whitespace, with encoding/json.Valid's verdict on every input:
// RFC 8259's grammar, no UTF-8 check inside strings, and the nesting limit
// of maxNesting.
func validJSON(b []byte) bool {
	var (
		buf   [64]byte
		stack = buf[:0] // the open containers, '[' or '{', innermost last
		i     int
		inKey bool // the string being scanned is an object key
		c     byte
	)

value:
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return false
	}
	if c = b[i]; c-'0' < 10 || c == '-' {
		goto number
	}
	switch c {
	case '{', '[':
		if len(stack) == maxNesting {
			return false
		}
		stack = append(stack, c)
		i++
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i < len(b) && b[i] == c+2 { // '{'+2 is '}' and '['+2 is ']'
			stack = stack[:len(stack)-1]
			i++
			goto end
		}
		if c == '[' {
			goto value
		}
		goto key
	case '"':
		i++
		inKey = false
		goto str
	case 't':
		if len(b)-i < 4 || string(b[i:i+4]) != "true" {
			return false
		}
		i += 4
		goto end
	case 'f':
		if len(b)-i < 5 || string(b[i:i+5]) != "false" {
			return false
		}
		i += 5
		goto end
	case 'n':
		if len(b)-i < 4 || string(b[i:i+4]) != "null" {
			return false
		}
		i += 4
		goto end
	}
	return false

number: // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
	if c == '-' {
		if i++; i == len(b) {
			return false
		}
		c = b[i]
	}
	switch {
	case c == '0':
		i++
	case c-'1' < 9:
		i++
		for i < len(b) && b[i]-'0' < 10 {
			i++
		}
	default:
		return false
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || b[i]-'0' >= 10 {
			return false
		}
		for i < len(b) && b[i]-'0' < 10 {
			i++
		}
	}
	if i < len(b) && b[i]|0x20 == 'e' {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || b[i]-'0' >= 10 {
			return false
		}
		for i < len(b) && b[i]-'0' < 10 {
			i++
		}
	}
	goto end

key:
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) || b[i] != '"' {
		return false
	}
	i++
	inKey = true

str:
	for len(b)-i >= 8 {
		if m := stringStop(binary.LittleEndian.Uint64(b[i:])); m != 0 {
			i += bits.TrailingZeros64(m) >> 3
			break
		}
		i += 8
	}
	// At a stop byte, or within eight bytes of the end.
	if i == len(b) {
		return false
	}
	switch c = b[i]; {
	case c == '"':
		i++
		if inKey {
			goto colon
		}
		goto end
	case c == '\\':
		if i++; i == len(b) {
			return false
		}
		switch b[i] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i++
		case 'u':
			if len(b)-i < 5 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
				return false
			}
			i += 5
		default:
			return false
		}
	case c < 0x20:
		return false
	default:
		i++
	}
	goto str

colon:
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if i == len(b) || b[i] != ':' {
		return false
	}
	i++
	goto value

end:
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	if len(stack) == 0 {
		return i == len(b)
	}
	if i == len(b) {
		return false
	}
	switch c = b[i]; c {
	case ',':
		i++
		if stack[len(stack)-1] == '[' {
			goto value
		}
		goto key
	case '}', ']':
		if c != stack[len(stack)-1]+2 {
			return false
		}
		stack = stack[:len(stack)-1]
		i++
		goto end
	}
	return false
}
