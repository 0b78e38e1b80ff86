package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"netupdate/internal/config"
)

// The request-line decoder of the serving loop. It reads streamRequest
// values from a stream without reflection and accepts exactly what
// encoding/json's Decoder, with DisallowUnknownFields, accepts into a
// streamRequest: the same values in the same sequence, merged the same
// way when a key repeats, and a refusal wherever that decoder refuses.
// FuzzRequestLines holds it to encoding/json value for value. Every
// position in a request has one Go type, so anything else there is
// refused where it starts: the decoder never skips a value.

// lineStream is one serving loop's wire state: the request reader over
// the stream's source, and the buffer Result lines are encoded into. It
// is pooled across streams (see streams).
type lineStream struct {
	src  io.Reader
	buf  []byte // read window: buf[r:w] is read and not yet decoded
	r, w int
	line int    // 1-based line of buf[r]
	eof  bool   // src reported io.EOF
	err  error  // src's other read error, reported once the window is drained
	str  []byte // the key, string or number being decoded
	out  []byte // the Result line being encoded
}

const (
	// streamWindow is the read window's size: a request body up to it
	// arrives in one Read, with its end, where net/http can report that.
	streamWindow = 4 << 10
	// maxPooledBuffer bounds the scratch and output buffers a pooled
	// stream keeps: one grown past it by a long line is dropped with its
	// stream rather than pooled, so a burst of long lines leaves no
	// heap behind.
	maxPooledBuffer = 64 << 10
)

// streams pools the serving loops' buffers across requests.
var streams = sync.Pool{New: func() any { return &lineStream{buf: make([]byte, streamWindow)} }}

// openStream returns a pooled stream reading src, whose first byte is on
// line firstLine.
func openStream(src io.Reader, firstLine int) *lineStream {
	s := streams.Get().(*lineStream)
	s.src, s.r, s.w, s.line, s.eof, s.err = src, 0, 0, firstLine, false, nil
	return s
}

// close returns s to the pool, unless a long line grew its buffers.
func (s *lineStream) close() {
	s.src, s.err = nil, nil
	if cap(s.str) <= maxPooledBuffer && cap(s.out) <= maxPooledBuffer {
		streams.Put(s)
	}
}

// next decodes the next request into req, which must be zero. It returns
// the line of the request's last byte, or, with the error, the line the
// error sits on: io.EOF when only whitespace is left, the source's read
// error, or a refusal of the input. After a refusal the stream is not at
// a value boundary, so it must be abandoned.
func (s *lineStream) next(req *streamRequest) (int, error) {
	c, err := s.nonSpace()
	if err != nil {
		if s.eof && s.err == nil {
			err = io.EOF // only whitespace was left
		}
		return s.line, err
	}
	switch c {
	case 'n':
		err = s.literal("null")
	case '{':
		err = s.request(req)
	default:
		err = s.mismatch(c, "an object")
	}
	return s.line, err
}

// usedUp reports whether the stream is known to hold no further request:
// the source has reported io.EOF and only whitespace is left unread. A
// source that reports io.EOF only on the read after its last byte (a
// pipe, a terminal) is not known to be used up until that read.
func (s *lineStream) usedUp() bool {
	if !s.eof {
		return false
	}
	for _, c := range s.buf[s.r:s.w] {
		if !isSpace(c) {
			return false
		}
	}
	return true
}

// fill reads more of the source into the window, which has no unread
// byte left; it reports false at the end of input or on a read error.
func (s *lineStream) fill() bool {
	s.r, s.w = 0, 0
	for !s.eof && s.err == nil {
		n, err := s.src.Read(s.buf)
		s.w = n
		if err == io.EOF {
			s.eof = true
		} else if err != nil {
			s.err = err
		}
		if n > 0 {
			return true
		}
	}
	return false
}

// peek returns the next unread byte, reading more if there is none; at
// the end of input it returns the error the value cut short reports.
func (s *lineStream) peek() (byte, error) {
	if s.r < s.w {
		return s.buf[s.r], nil
	}
	if !s.fill() {
		if s.err != nil {
			return 0, s.err
		}
		return 0, errors.New("unexpected end of input")
	}
	return s.buf[s.r], nil
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// nonSpace skips whitespace, counting lines, and peeks at the byte after.
func (s *lineStream) nonSpace() (byte, error) {
	for {
		c, err := s.peek()
		if err != nil || !isSpace(c) {
			return c, err
		}
		if c == '\n' {
			s.line++
		}
		s.r++
	}
}

// syntax refuses the byte c, which is next, as out of place.
func (s *lineStream) syntax(c byte, where string) error {
	return fmt.Errorf("invalid character %q %s", c, where)
}

// mismatch refuses the value starting with c, which is next, where want
// is the only kind of value allowed.
func (s *lineStream) mismatch(c byte, want string) error {
	var got string
	switch {
	case c == '{':
		got = "an object"
	case c == '[':
		got = "an array"
	case c == '"':
		got = "a string"
	case c == 't' || c == 'f':
		got = "a boolean"
	case c == 'n':
		got = "null"
	case c == '-' || '0' <= c && c <= '9':
		got = "a number"
	default:
		return s.syntax(c, "looking for beginning of value")
	}
	return fmt.Errorf("want %s, got %s", want, got)
}

// literal consumes the literal word, whose first byte is next.
func (s *lineStream) literal(word string) error {
	for i := 0; i < len(word); i++ {
		c, err := s.peek()
		if err != nil {
			return err
		}
		if c != word[i] {
			return s.syntax(c, "in literal "+word)
		}
		s.r++
	}
	return nil
}

// member advances to an object's next member, the object's '{' or the
// previous member's value consumed: it consumes the ',' before every
// member but the first, decodes the key into s.str and consumes the ':'.
// It reports false once it has consumed the object's '}'.
func (s *lineStream) member(first bool) (bool, error) {
	c, err := s.nonSpace()
	if err != nil {
		return false, err
	}
	if c == '}' {
		s.r++
		return false, nil
	}
	if !first {
		if c != ',' {
			return false, s.syntax(c, "after object key:value pair")
		}
		s.r++
		if c, err = s.nonSpace(); err != nil {
			return false, err
		}
	}
	if c != '"' {
		return false, s.syntax(c, "looking for beginning of object key string")
	}
	if err := s.string(); err != nil {
		return false, err
	}
	if c, err = s.nonSpace(); err != nil {
		return false, err
	}
	if c != ':' {
		return false, s.syntax(c, "after object key")
	}
	s.r++
	return true, nil
}

// element advances to an array's next element, the array's '[' or the
// previous element consumed, consuming the ',' between elements. It
// reports false once it has consumed the array's ']'.
func (s *lineStream) element(first bool) (bool, error) {
	c, err := s.nonSpace()
	if err != nil {
		return false, err
	}
	switch {
	case c == ']':
		s.r++
		return false, nil
	case first:
		return true, nil
	case c == ',':
		s.r++
		return true, nil
	}
	return false, s.syntax(c, "after array element")
}

// key reports whether the key in s.str names the field. Like
// encoding/json it matches under Unicode case folding: no two fields of a
// request's structs fold alike.
func (s *lineStream) key(field string) bool {
	return bytes.EqualFold(s.str, []byte(field))
}

// request decodes the object whose '{' is next into req.
func (s *lineStream) request(req *streamRequest) error {
	s.r++
	for more, err := s.member(true); more || err != nil; more, err = s.member(false) {
		switch {
		case err != nil:
			return err
		case s.key("reroute"):
			err = array(s, &req.Reroute, s.reroute)
		case s.key("ack"):
			err = s.ack(&req.Ack)
		default:
			err = s.unknownField()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (s *lineStream) unknownField() error { return fmt.Errorf("unknown field %q", s.str) }

// The decoders below decode one value into *dst as encoding/json does:
// null leaves an int, bool, string or struct as it is and sets a slice or
// pointer to nil; an object merges into the struct already there; an
// array decodes into the slice already there, element by element, and
// truncates it to its length, an empty array setting a new empty slice.

// reroute decodes one element of a "reroute" array.
func (s *lineStream) reroute(dst *config.Reroute) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '{':
	default:
		return s.mismatch(c, "an object")
	}
	s.r++
	for more, err := s.member(true); more || err != nil; more, err = s.member(false) {
		switch {
		case err != nil:
			return err
		case s.key("class"):
			err = s.stringValue(&dst.Class)
		case s.key("path"):
			err = array(s, &dst.Path, s.int)
		default:
			err = s.unknownField()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ack decodes an "ack" value: an object merges into the StepAck *dst
// points at, allocated if *dst is nil.
func (s *lineStream) ack(dst **StepAck) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*dst = nil
		return s.literal("null")
	case '{':
	default:
		return s.mismatch(c, "an object")
	}
	s.r++
	if *dst == nil {
		*dst = new(StepAck)
	}
	a := *dst
	for more, err := s.member(true); more || err != nil; more, err = s.member(false) {
		switch {
		case err != nil:
			return err
		case s.key("step"):
			err = s.int(&a.Step)
		case s.key("failed"):
			err = s.bool(&a.Failed)
		case s.key("committed"):
			err = array(s, &a.Committed, s.int)
		default:
			err = s.unknownField()
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// array decodes an array, each element by elem, into the slice already
// at *dst: an element past its length but within its capacity keeps what
// an earlier array left there, as encoding/json's slice growth does. An
// element never written is zero in both, so the capacity grown to is
// free to differ.
func array[T any](s *lineStream, dst *[]T, elem func(*T) error) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		*dst = nil
		return s.literal("null")
	case '[':
	default:
		return s.mismatch(c, "an array")
	}
	s.r++
	xs, i := *dst, 0
	for more, err := s.element(true); more || err != nil; more, err = s.element(false) {
		if err != nil {
			return err
		}
		if i == len(xs) && i < cap(xs) {
			xs = xs[:i+1]
		} else if i == len(xs) {
			if cap(xs) == 0 {
				xs = make([]T, 0, 8) // what a path's first hops need
			}
			var zero T
			xs = append(xs, zero)
		}
		if err := elem(&xs[i]); err != nil {
			return err
		}
		i++
	}
	if i == 0 {
		xs = []T{}
	}
	*dst = xs[:i]
	return nil
}

func (s *lineStream) bool(dst *bool) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case 't':
		*dst = true
		return s.literal("true")
	case 'f':
		*dst = false
		return s.literal("false")
	}
	return s.mismatch(c, "a boolean")
}

func (s *lineStream) stringValue(dst *string) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch c {
	case 'n':
		return s.literal("null")
	case '"':
		if err := s.string(); err != nil {
			return err
		}
		*dst = string(s.str)
		return nil
	}
	return s.mismatch(c, "a string")
}

// int decodes an int: a number with neither fraction nor exponent, in
// int's range.
func (s *lineStream) int(dst *int) error {
	c, err := s.nonSpace()
	if err != nil {
		return err
	}
	switch {
	case c == 'n':
		return s.literal("null")
	case c != '-' && (c < '0' || c > '9'):
		return s.mismatch(c, "an int")
	}
	// The number is the run of bytes a number can hold. Where the run is
	// not one JSON number, encoding/json refuses as well, at a byte of
	// the run; the end of input ends it, and the value around it reports
	// that.
	s.str = s.str[:0]
	for {
		if s.r == s.w && !s.fill() {
			if s.err != nil {
				return s.err
			}
			break
		}
		c := s.buf[s.r]
		if !('0' <= c && c <= '9' || c == '-' || c == '+' || c == '.' || c == 'e' || c == 'E') {
			break
		}
		s.str = append(s.str, c)
		s.r++
	}
	n, ok := parseInt(s.str)
	if !ok {
		return fmt.Errorf("want an int, got %s", s.str)
	}
	*dst = n
	return nil
}

// parseInt reads b as a JSON integer — an optional '-', then 0 or digits
// not starting with 0 — reporting false when it is not one or overflows
// an int.
func parseInt(b []byte) (int, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 1 && b[0] == '0' {
		return 0, false
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for _, c := range b {
		d := uint64(c - '0')
		if c < '0' || c > '9' || n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return int(-n), true
	}
	return int(n), true
}

// string consumes a JSON string, whose opening quote is next, decoding it
// into s.str as encoding/json decodes strings: escapes resolved, a
// surrogate escape not paired with the next escape and each byte of
// invalid UTF-8 replaced by U+FFFD.
func (s *lineStream) string() error {
	s.r++
	s.str = s.str[:0]
	surrogate := rune(-1) // a surrogate escape waiting for its pair
	for {
		c, err := s.peek()
		if err != nil {
			return err
		}
		if c == '\\' {
			s.r++
			if c, err = s.peek(); err != nil {
				return err
			}
			s.r++
			if c == 'u' {
				r, err := s.hex4()
				if err != nil {
					return err
				}
				if surrogate >= 0 {
					pair := utf16.DecodeRune(surrogate, r)
					surrogate = -1
					s.str = utf8.AppendRune(s.str, pair)
					if pair != utf8.RuneError {
						continue
					}
				}
				if utf16.IsSurrogate(r) {
					surrogate = r
				} else {
					s.str = utf8.AppendRune(s.str, r)
				}
				continue
			}
			if surrogate >= 0 {
				s.str, surrogate = utf8.AppendRune(s.str, utf8.RuneError), -1
			}
			switch c {
			case '"', '\\', '/':
			case 'b':
				c = '\b'
			case 'f':
				c = '\f'
			case 'n':
				c = '\n'
			case 'r':
				c = '\r'
			case 't':
				c = '\t'
			default:
				return s.syntax(c, "in string escape code")
			}
			s.str = append(s.str, c)
			continue
		}
		if surrogate >= 0 {
			s.str, surrogate = utf8.AppendRune(s.str, utf8.RuneError), -1
		}
		if c == '"' {
			s.r++
			if !utf8.Valid(s.str) {
				s.str = validUTF8(s.str)
			}
			return nil
		}
		if c < 0x20 {
			return s.syntax(c, "in string literal")
		}
		i := s.r + 1
		for i < s.w && s.buf[i] >= 0x20 && s.buf[i] != '"' && s.buf[i] != '\\' {
			i++
		}
		s.str = append(s.str, s.buf[s.r:i]...)
		s.r = i
	}
}

// hex4 consumes the four hex digits of a \u escape.
func (s *lineStream) hex4() (rune, error) {
	var r rune
	for i := 0; i < 4; i++ {
		c, err := s.peek()
		if err != nil {
			return 0, err
		}
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, s.syntax(c, `in \u hexadecimal character escape`)
		}
		r = r<<4 | rune(c)
		s.r++
	}
	return r, nil
}

// validUTF8 returns b with each byte that starts no valid UTF-8 encoding
// replaced by U+FFFD. What an escape wrote is valid UTF-8 starting with a
// byte that continues no encoding, so it decodes the same here as on its
// own.
func validUTF8(b []byte) []byte {
	out := make([]byte, 0, len(b)+len(b)/2)
	for i := 0; i < len(b); {
		r, n := utf8.DecodeRune(b[i:])
		if r == utf8.RuneError && n == 1 {
			out = utf8.AppendRune(out, utf8.RuneError)
		} else {
			out = append(out, b[i:i+n]...)
		}
		i += n
	}
	return out
}
