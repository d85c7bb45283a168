package serve

import (
	"strconv"
	"unicode/utf8"
)

// The NDJSON appender: every line a subscription emits (live,
// replayed, and the final EOF record) is written here, without
// reflection. Its output is byte-identical to what
// json.NewEncoder(w).Encode(rec) writes for a Record: field order,
// omitempty, the encoder's default HTML escaping and the trailing
// newline. TestRecordLineMatchesEncoder and FuzzRecordLine hold it to
// that. Control bytes are always escaped, so a line's only raw newline
// is its last byte; flatten cuts a batch's slab into lines on it.

// appendRecord appends r's NDJSON line to dst.
func appendRecord(dst []byte, r *Record) []byte {
	dst = append(dst, `{"token":`...)
	dst = appendString(dst, r.Token)
	return appendFields(dst, r)
}

// appendResult appends the line of a published result whose token is
// seq's: the bytes appendRecord writes with r.Token == seq.Token(),
// without materialising the token string.
func appendResult(dst []byte, seq Seq, r *Record) []byte {
	dst = append(dst, `{"token":"`...)
	dst = seq.appendToken(dst)
	dst = append(dst, '"')
	return appendFields(dst, r)
}

// appendFields appends every field after the token, in wire order, and
// the line's end.
func appendFields(dst []byte, r *Record) []byte {
	if r.Batch != 0 {
		dst = append(dst, `,"batch":`...)
		dst = strconv.AppendUint(dst, r.Batch, 10)
	}
	dst = append(dst, `,"tuple":`...)
	dst = strconv.AppendInt(dst, int64(r.Tuple), 10)
	dst = append(dst, `,"queryId":`...)
	dst = strconv.AppendInt(dst, int64(r.QueryID), 10)
	if r.Query != "" {
		dst = append(dst, `,"query":`...)
		dst = appendString(dst, r.Query)
	}
	if r.From != "" {
		dst = append(dst, `,"from":`...)
		dst = appendString(dst, r.From)
	}
	if r.To != "" {
		dst = append(dst, `,"to":`...)
		dst = appendString(dst, r.To)
	}
	dst = append(dst, `,"ts":`...)
	dst = strconv.AppendInt(dst, r.TS, 10)
	if r.Invalidated {
		dst = append(dst, `,"invalidated":true`...)
	}
	if r.EOF {
		dst = append(dst, `,"eof":true`...)
	}
	if r.Reason != "" {
		dst = append(dst, `,"reason":`...)
		dst = appendString(dst, r.Reason)
	}
	return append(dst, "}\n"...)
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string the way encoding/json does
// with HTML escaping on: '"' and '\\' backslash-escaped; \b \f \n \r \t
// by name; other control bytes and < > & as a six-byte \u00XX escape;
// the line and paragraph separators U+2028 and U+2029 escaped the same
// way; each invalid UTF-8 byte as the escaped replacement character
// U+FFFD; everything else verbatim.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '"', '\\':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
