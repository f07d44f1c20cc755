package service

import (
	"encoding/binary"
	"math/bits"
)

// maxNesting is encoding/json's bound on open arrays and objects: a
// document that opens one more is invalid, however it continues.
const maxNesting = 10000

// validJSON reports whether data is one JSON value with nothing but
// whitespace around it. It accepts exactly what encoding/json.Valid
// accepts — including invalid UTF-8 inside strings, and rejecting
// nesting deeper than maxNesting — and FuzzValidJSON holds the two
// together. It exists because a disk hit validates a 15 KB advice
// document per request, where json.Valid steps a state machine a byte
// at a time: here string bodies, nearly all of a stage document, are
// scanned a word at a time.
func validJSON(data []byte) bool {
	_, ok := validDoc(data)
	return ok
}

// validDoc is validJSON that also returns where the last value in data
// to start starts — in a document that ends in an object member whose
// value is a string, that string. last means nothing when ok is false.
func validDoc(data []byte) (last int, ok bool) {
	// The open containers, '{' or '[', innermost last: a fixed buffer on
	// the stack covers any nesting a stage document has.
	var buf [64]byte
	stack := buf[:0]
	i := 0
	for {
		// A value starts at i.
		if i = skipSpace(data, i); i == len(data) {
			return 0, false
		}
		last = i
		switch c := data[i]; c {
		case '{', '[':
			if len(stack) == maxNesting {
				return 0, false
			}
			// '}' is '{'+2 and ']' is '['+2.
			if i = skipSpace(data, i+1); i < len(data) && data[i] == c+2 {
				i++
				break
			}
			stack = append(stack, c)
			if c == '{' {
				i = scanKey(data, i)
			}
			if i < 0 {
				return 0, false
			}
			continue
		case '"':
			i = scanString(data, i+1)
		case 't':
			i = scanLiteral(data, i, "true")
		case 'f':
			i = scanLiteral(data, i, "false")
		case 'n':
			i = scanLiteral(data, i, "null")
		default:
			i = scanNumber(data, i)
		}
		if i < 0 {
			return 0, false
		}
		// A value ends before i: close the containers it completes, then
		// take the comma before the next value, or the end of the input.
		for {
			i = skipSpace(data, i)
			if len(stack) == 0 {
				return last, i == len(data)
			}
			if i == len(data) {
				return 0, false
			}
			top := stack[len(stack)-1]
			if data[i] == top+2 {
				stack = stack[:len(stack)-1]
				i++
				continue
			}
			if data[i] != ',' {
				return 0, false
			}
			if i++; top == '{' {
				if i = scanKey(data, i); i < 0 {
					return 0, false
				}
			}
			break
		}
	}
}

func skipSpace(data []byte, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\n', '\t', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanKey scans an object key and its colon from i, returning the index
// after the colon, or -1.
func scanKey(data []byte, i int) int {
	if i = skipSpace(data, i); i == len(data) || data[i] != '"' {
		return -1
	}
	if i = scanString(data, i+1); i < 0 {
		return -1
	}
	if i = skipSpace(data, i); i == len(data) || data[i] != ':' {
		return -1
	}
	return i + 1
}

// SWAR constants: a 1 and a high bit in every byte of a word.
const (
	swarOnes = 0x0101010101010101
	swarHigh = 0x8080808080808080
)

// stringStops flags, in the high bit of its byte, every byte of w that
// ends a run of plain string bytes — '"', '\\' or a control byte below
// 0x20. It may also flag bytes above the first true stop, never below
// it: each subtraction borrows only out of a true stop byte. So the
// lowest flag is exact, and a word with no stop flags nothing.
func stringStops(w uint64) uint64 {
	q := w ^ (swarOnes * '"')
	b := w ^ (swarOnes * '\\')
	return ((w-swarOnes*0x20)&^w | (q-swarOnes)&^q | (b-swarOnes)&^b) & swarHigh
}

// scanString scans a string body from i, just after its opening quote,
// returning the index after the closing quote, or -1.
func scanString(data []byte, i int) int {
	for {
		for ; i+8 <= len(data); i += 8 {
			if m := stringStops(binary.LittleEndian.Uint64(data[i:])); m != 0 {
				i += bits.TrailingZeros64(m) / 8
				break
			}
		}
		// i is at a stop byte, or fewer than 8 bytes remain.
		for ; i < len(data) && data[i] != '\\'; i++ {
			switch c := data[i]; {
			case c == '"':
				return i + 1
			case c < 0x20:
				return -1
			}
		}
		// An escape: its backslash is at i.
		if i+1 >= len(data) {
			return -1
		}
		switch data[i+1] {
		case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			i += 2
		case 'u':
			if len(data)-i < 6 {
				return -1
			}
			for _, h := range data[i+2 : i+6] {
				if !('0' <= h && h <= '9' || 'a' <= h|0x20 && h|0x20 <= 'f') {
					return -1
				}
			}
			i += 6
		default:
			return -1
		}
	}
}

// scanLiteral matches the literal lit at i, returning the index after
// it, or -1.
func scanLiteral(data []byte, i int, lit string) int {
	if len(data)-i < len(lit) || string(data[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// scanNumber scans -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? at i,
// returning the index after it, or -1.
func scanNumber(data []byte, i int) int {
	if data[i] == '-' {
		i++
	}
	switch {
	case i == len(data):
		return -1
	case data[i] == '0':
		i++
	case '1' <= data[i] && data[i] <= '9':
		i = skipDigits(data, i+1)
	default:
		return -1
	}
	if i < len(data) && data[i] == '.' {
		if i = someDigits(data, i+1); i < 0 {
			return -1
		}
	}
	if i < len(data) && data[i]|0x20 == 'e' {
		if i++; i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		i = someDigits(data, i)
	}
	return i
}

func skipDigits(data []byte, i int) int {
	for i < len(data) && '0' <= data[i] && data[i] <= '9' {
		i++
	}
	return i
}

// someDigits is skipDigits for a run that must not be empty: -1 if it is.
func someDigits(data []byte, i int) int {
	if j := skipDigits(data, i); j > i {
		return j
	}
	return -1
}
