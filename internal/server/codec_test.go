package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"testing"

	"netupdate/internal/obs"
)

// chunkReader serves b at most n bytes per Read. With eager set it
// reports io.EOF with the last bytes, as net/http's body of a declared
// length does; otherwise on the read after them, as a pipe does.
type chunkReader struct {
	b     []byte
	n     int
	eager bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	k := min(len(p), c.n, len(c.b))
	copy(p, c.b[:k])
	c.b = c.b[k:]
	if c.eager && len(c.b) == 0 {
		return k, io.EOF
	}
	return k, nil
}

// FuzzRequestLines: the serving loop's request decoder (lineStream.next)
// against encoding/json's Decoder with DisallowUnknownFields, the decoder
// the loop ran before and the reference it is held to. On any bytes, read
// in chunks of 1 to 16 bytes, the two yield the same sequence of requests
// (reflect.DeepEqual: nil and empty slices told apart), each answered on
// the line of its last byte, and end alike: both at the end of input, or
// both refusing the same value. A refusal is positioned no earlier than
// the line that value starts on and no later than the last line. The
// seeds are the cases where encoding/json's behaviour is least obvious:
// null and {} as requests, case-folded keys, duplicate keys (a second
// "ack" merges into the same StepAck, a second "path" replaces the first
// in place), \u escapes, unpaired surrogates and invalid UTF-8 in class
// names, the numbers -0, 1.0, 1e2 and an int overflow, values back to
// back, and a leading byte-order mark.
func FuzzRequestLines(f *testing.F) {
	for _, seed := range []string{
		`{"reroute":[{"class":"c","path":[0,2,3]}]}` + "\n" + `{"ack":{"step":1}}` + "\n",
		`{"ack":{"failed":true,"committed":[0,2]}}`,
		"null\n{}\n  \n null",
		`{"ReRoute":[{"CLASS":"c","Path":[1]}],"ACK":null}`,
		`{"ack":{"step":3},"ack":{"committed":[1]}}`,
		`{"reroute":[{"class":"a","path":[5,6,7]}],"reroute":[{"path":[1]},null],"reroute":[{"path":[2,null,4]}]}`,
		`{"reroute":[{"class":"a","path":[5,6]}],"reroute":[],"reroute":[{"path":[1,null]}]}`,
		`{"reroute":[{"class":"\u0063\ud83d\ude00\ud800x\udc00\u00e9\n\"\/"}]}`,
		"{\"reroute\":[{\"class\":\"\xff\xe2\x82\\u00ac\xed\xa0\x80\"}]}",
		`{"reroute":[{"class":"c","path":[-0]}]}`,
		`{"reroute":[{"class":"c","path":[1.0]}]}`,
		`{"reroute":[{"class":"c","path":[1e2]}]}`,
		`{"ack":{"step":9223372036854775807}}{"ack":{"step":-9223372036854775808}}{"ack":{"step":9223372036854775808}}`,
		`{}{}nullnull{"reroute":null}`,
		"\xef\xbb\xbf{}",
		`{"reroute":[{"class":"c","path":[0,2,3]}]}` + "\n" + `{"reroute":[{"class":"c","path":["x"]}]}`,
		`{"reroute":[{"class":"c","path":[0,2,3]}],"extra":1}`,
		"{\"reroute\":\n[{\"class\":\"c\",\n\"path\":[0,",
		`{"ack":{"step":1,}}`,
		`{"reroute":[{"class":"c","path":[01]}]}`,
		`{"ack":{"failed":tru}}`,
	} {
		f.Add([]byte(seed), uint8(15))
		f.Add([]byte(seed), uint8(128))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		s := openStream(&chunkReader{b: data, n: int(chunk%16) + 1, eager: chunk >= 128}, 1)
		defer s.close()
		lineAt := func(off int64) int { return 1 + bytes.Count(data[:off], []byte("\n")) }
		for i := 0; ; i++ {
			start := dec.InputOffset()
			var want, got streamRequest
			werr := dec.Decode(&want)
			line, gerr := s.next(&got)
			if werr == io.EOF || gerr == io.EOF {
				if werr != gerr {
					t.Fatalf("%q request %d: encoding/json %v, the decoder %v", data, i, werr, gerr)
				}
				return
			}
			if (werr == nil) != (gerr == nil) {
				t.Fatalf("%q request %d: encoding/json %v, the decoder %v (%+v)", data, i, werr, gerr, got)
			}
			if werr != nil {
				first := start
				for first < int64(len(data)) && isSpace(data[first]) {
					first++
				}
				if line < lineAt(first) || line > lineAt(int64(len(data))) {
					t.Fatalf("%q request %d: refusal %q on line %d, the request starts on line %d of %d",
						data, i, gerr, line, lineAt(first), lineAt(int64(len(data))))
				}
				return
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%q request %d: encoding/json %#v, the decoder %#v", data, i, want, got)
			}
			if wl := lineAt(dec.InputOffset() - 1); line != wl {
				t.Fatalf("%q request %d: on line %d, want %d", data, i, line, wl)
			}
		}
	})
}

// FuzzResultLine: appendResult against json.Marshal, the encoder the
// serving loop ran before and the reference it is held to: on any
// Result, the same bytes, or both refusing (a NaN or infinite float).
// The fuzzed values fill every field: steps, the DAG and the stats are
// shaped by the bytes of shape, the stats' and the trace's floats are
// the bit patterns in msBits, and flags picks which parts are present. The
// seeds are each kind of line — plan, impossible, error (retryable, with
// a line), acked and repair — strings that encoding/json escapes (<, >,
// &, U+2028, U+2029, control bytes, invalid UTF-8), floats in both its
// formats, and a DAG with an empty drain, which is omitted.
func FuzzResultLine(f *testing.F) {
	ms := func(fs ...float64) []byte {
		var b []byte
		for _, x := range fs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	// The bits of flags: which parts of a Result are present.
	const retryable, dag, stats, trace, drain, cacheHit = 1, 1 << 1, 1 << 2, 1 << 3, 1 << 4, 1 << 5
	for _, s := range []struct {
		seq, line                      int
		tenant, kind, msg, rule, reqID string
		flags                          uint16
		shape, ms                      []byte
	}{
		{1, 0, "t1", "plan", "", "", "", dag | stats, []byte{4, 1, 0x84, 2, 0x85, 3}, ms(0.042, 0, 0.001, 1e-7, 0, 0.25)},
		{2, 0, "t1", "plan", "", "[10] dst=103,src=101 -> fwd 1", "r-1", dag | stats | drain | cacheHit, []byte{6, 10, 9, 0, 1, 2}, ms(12.5, 1e21, 123456.789, -0.0, 3, 1e-6)},
		{3, 0, "t1", "impossible", "", "", "", 0, nil, nil},
		{4, 7, "t1", "error", "server: queue full <&> \u2028\u2029 \x01\t\n\"\\", "", "", retryable, nil, nil},
		{5, 0, "t1", "acked", "", "", "", 0, nil, nil},
		{6, 0, "t\xff1", "repair", "", "rule \xe2\x82", "id\u2028", dag | stats | trace, []byte{3, 0x81, 2, 0}, ms(2, 0.5, 0.001)},
		{7, 0, "", "plan", "", "", "", stats | trace, []byte{2}, ms(5e-324, math.MaxFloat64, 1.5e300)},
		{8, 0, "t1", "plan", "", "", "", stats, nil, ms(1, math.NaN())},
	} {
		f.Add(s.seq, s.line, s.tenant, s.kind, s.msg, s.rule, s.reqID, s.flags, s.shape, s.ms)
	}
	f.Fuzz(func(t *testing.T, seq, line int, tenant, kind, msg, rule, reqID string, flags uint16, shape, msBits []byte) {
		next := func() int {
			if len(shape) == 0 {
				return 0
			}
			b := shape[0]
			shape = shape[1:]
			return int(int8(b))
		}
		float := func() float64 {
			if len(msBits) < 8 {
				return 0
			}
			x := math.Float64frombits(binary.LittleEndian.Uint64(msBits))
			msBits = msBits[8:]
			return x
		}
		edges := func(n int) [][]int {
			if n < 0 {
				return nil
			}
			lists := make([][]int, n%8)
			for i := range lists {
				k := next()
				if k < 0 {
					continue // nil: null on the wire
				}
				lists[i] = make([]int, k%4)
				for j := range lists[i] {
					lists[i][j] = next()
				}
			}
			return lists
		}
		r := Result{Seq: seq, Tenant: tenant, Result: kind, Error: msg, Retryable: flags&retryable != 0, Line: line}
		ops := [...]string{"update", "wait", "add", "del"}
		for n := next() % 8; n > 0; n-- {
			b := next()
			st := ResultStep{Op: ops[b&3]}
			if b&4 != 0 {
				sw := next()
				st.Switch = &sw
			}
			if b&8 != 0 {
				st.Rule = rule
			}
			r.Steps = append(r.Steps, st)
		}
		if flags&dag != 0 {
			r.DAG = &ResultDAG{Preds: edges(next()), Depth: next(), Width: next()}
			if flags&drain != 0 {
				r.DAG.Drain = edges(next())
			}
		}
		if flags&stats != 0 {
			r.Stats = &ResultStats{
				Units: next(), Components: next(), Checks: next(), ClassSkips: next(), Waits: next(),
				DAGDepth: next(), DAGWidth: next(),
				ElapsedMS: float(), RebindMS: float(), SearchMS: float(), WaitRemovalMS: float(),
				VerifyMS: float(), CacheVerifyMS: float(),
				RequestID: reqID, CacheHit: flags&cacheHit != 0,
			}
		}
		if flags&trace != 0 {
			r.Trace = &obs.TraceData{RequestID: reqID, Dropped: next(), Spans: []obs.SpanData{
				{ID: 1, Name: rule, Detail: msg, StartUS: float(), DurUS: float()},
			}}
		}
		want, werr := json.Marshal(r)
		got, gerr := appendResult(nil, &r)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("%+v: json.Marshal %v, appendResult %v", r, werr, gerr)
		}
		if werr == nil && !bytes.Equal(want, got) {
			t.Fatalf("%+v:\n json.Marshal %s\nappendResult %s", r, want, got)
		}
	})
}
