package server

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"netcache"
)

// resultSpecs are Figure 6 specs at serve-hot's scale: two apps on each
// system, so the bodies carry every system's protocol counters.
var resultSpecs = []netcache.RunSpec{
	{App: "sor", System: netcache.SystemNetCache, Scale: 0.06},
	{App: "fft", System: netcache.SystemNetCache, Scale: 0.06},
	{App: "gauss", System: netcache.SystemLambdaNet, Scale: 0.06},
	{App: "radix", System: netcache.SystemLambdaNet, Scale: 0.06},
	{App: "water", System: netcache.SystemDMONU, Scale: 0.06},
	{App: "cg", System: netcache.SystemDMONU, Scale: 0.06},
	{App: "em3d", System: netcache.SystemDMONI, Scale: 0.06},
	{App: "lu", System: netcache.SystemDMONI, Scale: 0.06},
}

// resultBodies simulates resultSpecs and returns each Result as netcached
// stores it.
func resultBodies(tb testing.TB) [][]byte {
	tb.Helper()
	out := make([][]byte, len(resultSpecs))
	for i, spec := range resultSpecs {
		res, err := netcache.Run(spec)
		if err != nil {
			tb.Fatalf("%s/%v: %v", spec.App, spec.System, err)
		}
		if out[i], err = json.Marshal(res); err != nil {
			tb.Fatal(err)
		}
	}
	return out
}

// longStringValue is an entry shaped like perfbench's rebalance values: a
// small object whose one field is an n-byte hex string.
func longStringValue(n int) []byte {
	b := []byte(`{"seed":1,"entry":7,"pad":"`)
	for len(b) < n-2 {
		b = fmt.Appendf(b, "%016x", uint64(len(b))*0x9e3779b97f4a7c15)
	}
	return append(b[:n-2], `"}`...)
}

// nested is a value n containers deep around inner: arrays, or objects
// whose every level is a one-key object.
func nested(n int, object bool, inner string) string {
	if object {
		return strings.Repeat(`{"k":`, n-1) + "{" + inner + "}" + strings.Repeat("}", n-1)
	}
	return strings.Repeat("[", n) + inner + strings.Repeat("]", n)
}

type jsonCase struct {
	name string
	in   string
	want bool
}

// validJSONCases are the inputs where a hand-written JSON check is most
// likely to part from encoding/json: its whitespace set, number grammar,
// literals, string escapes and the nesting limit.
func validJSONCases() []jsonCase {
	cases := []jsonCase{
		{"empty", "", false},
		{"whitespace only", " \t\n\r", false},
		{"byte-order mark", "\xef\xbb\xbf{}", false},
		{"NUL", "\x00", false},
		{"NUL after value", "{}\x00", false},
		{"vertical tab", "\v1", false},
		{"form feed", "1\f", false},
		{"no-break space", " 1", false},
		{"surrounding whitespace", " \t\r\n{ \"a\" :\t[ 1 , 2 ]\n}\r\n ", true},
		{"empty object", "{}", true},
		{"empty array", "[ ]", true},
		{"literals", "[true,false,null]", true},
		{"literal prefix", "tru", false},
		{"literal too long", "truex", false},
		{"literal capitalised", "True", false},
		{"true misspelt", "[trux]", false},
		{"false misspelt", "[falsx]", false},
		{"null misspelt", "[nulx]", false},
		{"nul", "nul", false},
		{"null then garbage", "null]", false},
		{"invalid UTF-8 in string", "\"\xff\xfe\xc3\x28\"", true},
		{"invalid UTF-8 outside string", "[\xff]", false},
		{"every escape", `"\" \\ \/ \b \f \n \r \t \u00e9 \uABCD \ud800"`, true},
		{"bad escape", `"\x"`, false},
		{"escaped apostrophe", `"\'"`, false},
		{"bad \\u digit", `"\u12G4"`, false},
		{"bad first \\u digit", `"\uG123"`, false},
		{"bad last \\u digit", `"\u123g"`, false},
		{"short \\u", `"\u123"`, false},
		{"\\u at end", `"\u12`, false},
		{"backslash at end", `"abc\`, false},
		{"unterminated string", `"abcdefghijklmnop`, false},
		{"control byte in string", "\"abc\x1f\"", false},
		{"raw newline in string", "\"abcdefghij\nk\"", false},
		{"DEL in string", "\"\x7f\"", true},
		{"stop byte past eight", `"abcdefghijklmno\"pqrstuvwxyz0123456789"`, true},
		{"quote at a word boundary", `"abcdefg"`, true},
		{"tab in long string", "\"abcdefghijklmnopqrstu\tvwxyz\"", false},
		{"0x1f in long string", "\"abcdefghij\x1fklmnopqrstuvwxyz\"", false},
		{"high bytes then quote", "\"\xa2\xdc\xa0\xff\xa2\xdc\xa0\xff\"", true},
		{"minus alone", "-", false},
		{"minus space digit", "- 1", false},
		{"negative zero", "-0", true},
		{"leading zero", "01", false},
		{"negative leading zero", "-01", false},
		{"dot alone", "1.", false},
		{"leading dot", ".5", false},
		{"plus sign", "+1", false},
		{"exponent sign alone", "1e+", false},
		{"exponent alone", "1E", false},
		{"fraction without digits", "[1.]", false},
		{"exponent without digits", "[1e]", false},
		{"signed exponent without digits", "{\"a\":1E-}", false},
		{"full number", "-12.340e+10", true},
		{"capital exponent", "0E-0", true},
		{"two dots", "1.2.3", false},
		{"hex number", "0x10", false},
		{"NaN", "NaN", false},
		{"trailing comma in array", "[1,]", false},
		{"trailing comma in object", `{"a":1,}`, false},
		{"leading comma", "[,1]", false},
		{"missing colon", `{"a" 1}`, false},
		{"missing value", `{"a":}`, false},
		{"non-string key", `{1:2}`, false},
		{"missing comma", "[1 2]", false},
		{"two values", "1 2", false},
		{"trailing garbage", `{"a":1}x`, false},
		{"extra close", `{"a":1}}`, false},
		{"mismatched close", "[}", false},
		{"mismatched close in object", `{"a":[1}`, false},
		{"crossed closes", `{"a":[1}]`, false},
		{"crossed closes in array", `[{"a":1]}`, false},
		{"close alone", "]", false},
		{"unclosed", `{"a":[1,2]`, false},
		{"push value", `{"good":1}`, true},
		{"truncated push value", `{"other":`, false},
		{"verbatim push value", "{ \"html\": \"<a href='x'>&amp;</a>\",\n  \"n\": 1.50 }", true},
	}
	for _, depth := range []int{9999, 10000, 10001} {
		want := depth <= maxNesting
		for _, object := range []bool{false, true} {
			kind := "arrays"
			if object {
				kind = "objects"
			}
			inner := "1"
			if object {
				inner = `"v":1`
			}
			cases = append(cases,
				jsonCase{fmt.Sprintf("%d %s, empty", depth, kind), nested(depth, object, ""), want},
				jsonCase{fmt.Sprintf("%d %s, non-empty", depth, kind), nested(depth, object, inner), want})
		}
	}
	return cases
}

// TestValidJSONEdgeCases checks validJSON and encoding/json.Valid against
// the expected verdict on each edge case, so the table itself is checked
// against the standard library.
func TestValidJSONEdgeCases(t *testing.T) {
	for _, tc := range validJSONCases() {
		b := []byte(tc.in)
		if got := json.Valid(b); got != tc.want {
			t.Errorf("%s: json.Valid = %v, the table says %v", tc.name, got, tc.want)
		}
		if got := validJSON(b); got != tc.want {
			t.Errorf("%s: validJSON = %v, want %v", tc.name, got, tc.want)
		}
	}
	for _, b := range append(resultBodies(t), longStringValue(8<<10)) {
		if !json.Valid(b) || !validJSON(b) {
			t.Errorf("a %d-byte value: json.Valid %v, validJSON %v", len(b), json.Valid(b), validJSON(b))
		}
		// Cut anywhere inside the top-level object, a value is incomplete.
		for _, n := range []int{1, len(b) / 3, len(b) - 1} {
			if validJSON(b[:n]) {
				t.Errorf("validJSON accepts a %d-byte value cut to %d bytes", len(b), n)
			}
		}
	}
}

// FuzzValidJSON: validJSON's verdict equals encoding/json.Valid's on every
// input. The seeds are real Result bodies, the push tests' values and the
// edge cases.
func FuzzValidJSON(f *testing.F) {
	for _, b := range resultBodies(f) {
		f.Add(b)
	}
	f.Add(longStringValue(512))
	for _, tc := range validJSONCases() {
		if len(tc.in) < 1024 {
			f.Add([]byte(tc.in))
		}
	}
	f.Add([]byte(nested(70, false, "1")))
	f.Fuzz(func(t *testing.T, b []byte) {
		if got, want := validJSON(b), json.Valid(b); got != want {
			t.Fatalf("validJSON = %v, json.Valid = %v on %q", got, want, b)
		}
	})
}

var validSink bool

// BenchmarkValidJSON times the stored-value check, encoding/json.Valid
// beside validJSON, on two value shapes: real Result bodies (one op is one
// body, cycling through resultSpecs) and an 8 KB value that is one long
// string, like perfbench's rebalance entries, which flatters a string scan.
func BenchmarkValidJSON(b *testing.B) {
	shapes := []struct {
		name   string
		values [][]byte
	}{
		{"result", resultBodies(b)},
		{"string", [][]byte{longStringValue(8 << 10)}},
	}
	checks := []struct {
		name  string
		valid func([]byte) bool
	}{
		{"json.Valid", json.Valid},
		{"validJSON", validJSON},
	}
	for _, sh := range shapes {
		total := 0
		for _, v := range sh.values {
			total += len(v)
		}
		for _, ck := range checks {
			b.Run(sh.name+"/"+ck.name, func(b *testing.B) {
				b.SetBytes(int64(total / len(sh.values)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					validSink = ck.valid(sh.values[i%len(sh.values)])
				}
				if !validSink {
					b.Fatal("value refused")
				}
			})
		}
	}
}
