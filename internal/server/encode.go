package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// The Result-line encoder of the serving loop: appendResult writes the
// bytes json.Marshal writes for a Result, field by field, without
// reflection. FuzzResultLine holds it to json.Marshal byte for byte, so
// a field added to Result, ResultStep, ResultDAG or ResultStats is added
// here and to the Results that target builds.

// writeResult writes res to out as one line, in one Write.
func (s *lineStream) writeResult(out io.Writer, res *Result) error {
	b, err := appendResult(s.out[:0], res)
	s.out = b
	if err != nil {
		return err
	}
	s.out = append(s.out, '\n')
	_, err = out.Write(s.out)
	return err
}

// appendResult appends r's JSON encoding to b. Like json.Marshal it
// refuses a NaN or infinite float.
func appendResult(b []byte, r *Result) ([]byte, error) {
	b = append(b, `{"seq":`...)
	b = strconv.AppendInt(b, int64(r.Seq), 10)
	if r.Tenant != "" {
		b = append(b, `,"tenant":`...)
		b = appendString(b, r.Tenant)
	}
	b = append(b, `,"result":`...)
	b = appendString(b, r.Result)
	if len(r.Steps) > 0 {
		b = append(b, `,"steps":[`...)
		for i := range r.Steps {
			st := &r.Steps[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"op":`...)
			b = appendString(b, st.Op)
			if st.Switch != nil {
				b = append(b, `,"switch":`...)
				b = strconv.AppendInt(b, int64(*st.Switch), 10)
			}
			if st.Rule != "" {
				b = append(b, `,"rule":`...)
				b = appendString(b, st.Rule)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, r.Error)
	}
	if r.Retryable {
		b = append(b, `,"retryable":true`...)
	}
	if r.Line != 0 {
		b = append(b, `,"line":`...)
		b = strconv.AppendInt(b, int64(r.Line), 10)
	}
	if st := r.Stats; st != nil {
		var err error
		if b, err = appendStats(b, st); err != nil {
			return b, err
		}
	}
	if r.Trace != nil {
		tr, err := json.Marshal(r.Trace)
		if err != nil {
			return b, err
		}
		b = append(b, `,"trace":`...)
		b = append(b, tr...)
	}
	if d := r.DAG; d != nil {
		b = append(b, `,"dag":{"preds":`...)
		b = appendEdges(b, d.Preds)
		if len(d.Drain) > 0 {
			b = append(b, `,"drain":`...)
			b = appendEdges(b, d.Drain)
		}
		b = append(b, `,"depth":`...)
		b = strconv.AppendInt(b, int64(d.Depth), 10)
		b = append(b, `,"width":`...)
		b = strconv.AppendInt(b, int64(d.Width), 10)
		b = append(b, '}')
	}
	return append(b, '}'), nil
}

func appendStats(b []byte, st *ResultStats) ([]byte, error) {
	for _, f := range [...]float64{st.ElapsedMS, st.RebindMS, st.SearchMS, st.WaitRemovalMS, st.VerifyMS, st.CacheVerifyMS} {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return b, fmt.Errorf("server: unsupported value %v in result stats", f)
		}
	}
	b = append(b, `,"stats":{"units":`...)
	b = strconv.AppendInt(b, int64(st.Units), 10)
	b = append(b, `,"components":`...)
	b = strconv.AppendInt(b, int64(st.Components), 10)
	b = append(b, `,"checks":`...)
	b = strconv.AppendInt(b, int64(st.Checks), 10)
	b = append(b, `,"classSkips":`...)
	b = strconv.AppendInt(b, int64(st.ClassSkips), 10)
	b = append(b, `,"waits":`...)
	b = strconv.AppendInt(b, int64(st.Waits), 10)
	if st.DAGDepth != 0 {
		b = append(b, `,"dagDepth":`...)
		b = strconv.AppendInt(b, int64(st.DAGDepth), 10)
	}
	if st.DAGWidth != 0 {
		b = append(b, `,"dagWidth":`...)
		b = strconv.AppendInt(b, int64(st.DAGWidth), 10)
	}
	b = append(b, `,"elapsedMs":`...)
	b = appendFloat(b, st.ElapsedMS)
	for _, f := range [...]struct {
		key string
		ms  float64
	}{
		{`,"rebindMs":`, st.RebindMS},
		{`,"searchMs":`, st.SearchMS},
		{`,"waitRemovalMs":`, st.WaitRemovalMS},
		{`,"verifyMs":`, st.VerifyMS},
		{`,"cacheVerifyMs":`, st.CacheVerifyMS},
	} {
		if f.ms != 0 {
			b = append(b, f.key...)
			b = appendFloat(b, f.ms)
		}
	}
	if st.RequestID != "" {
		b = append(b, `,"requestId":`...)
		b = appendString(b, st.RequestID)
	}
	if st.CacheHit {
		b = append(b, `,"cacheHit":true`...)
	}
	return append(b, '}'), nil
}

// appendEdges appends per-node edge lists; a nil list is null.
func appendEdges(b []byte, lists [][]int) []byte {
	if lists == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, es := range lists {
		if i > 0 {
			b = append(b, ',')
		}
		if es == nil {
			b = append(b, "null"...)
			continue
		}
		b = append(b, '[')
		for j, e := range es {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(e), 10)
		}
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendFloat appends a finite float64 as encoding/json does: the
// shortest representation, in exponent form only below 1e-6 or from
// 1e21 on, with the exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s as a JSON string as encoding/json writes it:
// HTML-escaped, U+2028 and U+2029 escaped, each byte of invalid UTF-8
// written as the six bytes \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
