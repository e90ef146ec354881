package serve

import (
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// genBody performs one /gen request with extra query parameters and an
// optional Range header, returning the response. The caller owns Body.
func genGet(t *testing.T, url, rangeHeader string) *http.Response {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rangeHeader != "" {
		req.Header.Set("Range", rangeHeader)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// readAll reads the body to completion (so trailers populate) and closes.
func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func seekTestFactors(t *testing.T, ts *httptest.Server) (ha, hb string, total int64) {
	t.Helper()
	a := gen.PrefAttach(7, 2, 101)
	b := gen.ER(5, 0.6, 102)
	return registerText(t, ts, a, "seek-a"), registerText(t, ts, b, "seek-b"),
		a.NumArcs() * b.NumArcs()
}

func TestGenerateOffsetParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ha, hb, total := seekTestFactors(t, ts)
	base := fmt.Sprintf("%s/gen/%s/%s/edges", ts.URL, ha, hb)

	full := string(readAll(t, genGet(t, base, "")))
	lines := strings.Split(strings.TrimSuffix(full, "\n"), "\n")
	if int64(len(lines)) != total {
		t.Fatalf("full stream has %d lines, want %d", len(lines), total)
	}
	for _, off := range []int64{0, 1, total / 2, total - 1, total} {
		resp := genGet(t, fmt.Sprintf("%s?offset=%d", base, off), "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("offset=%d: status %d", off, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Kronlab-Stream-Offset"); got != strconv.FormatInt(off, 10) {
			t.Errorf("offset=%d: X-Kronlab-Stream-Offset = %q", off, got)
		}
		body := string(readAll(t, resp))
		want := ""
		if off < total {
			want = strings.Join(lines[off:], "\n") + "\n"
		}
		if body != want {
			t.Fatalf("offset=%d: body is not the full stream's tail", off)
		}
	}
	// Out-of-range offsets refuse.
	for _, raw := range []string{"-1", fmt.Sprint(total + 1), "zap"} {
		resp := genGet(t, base+"?offset="+raw, "")
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("offset=%s: status %d, want 400", raw, resp.StatusCode)
		}
	}
}

// TestGenerateCutAndResume is the tentpole's serve-level guarantee: a
// stream cut at an arbitrary point and resumed via its
// X-Kronlab-Resume-Token trailer concatenates byte-identically to the
// uncut stream — for both wire formats.
func TestGenerateCutAndResume(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ha, hb, total := seekTestFactors(t, ts)
	for _, format := range []string{"ndjson", "binary"} {
		t.Run(format, func(t *testing.T) {
			base := fmt.Sprintf("%s/gen/%s/%s/edges?format=%s", ts.URL, ha, hb, format)
			full := readAll(t, genGet(t, base, ""))

			cut := total / 3
			first := genGet(t, fmt.Sprintf("%s&limit=%d", base, cut), "")
			part1 := readAll(t, first)
			if got := first.Trailer.Get("X-Kronlab-Complete"); got != "true" {
				t.Fatalf("limit-cut stream X-Kronlab-Complete = %q, want true", got)
			}
			token := first.Trailer.Get("X-Kronlab-Resume-Token")
			if token == "" {
				t.Fatal("cut stream carried no resume token")
			}
			if !strings.HasSuffix(token, "."+strconv.FormatInt(cut, 10)) {
				t.Fatalf("resume token %q does not end at position %d", token, cut)
			}

			second := genGet(t, base+"&resume="+token, "")
			if second.StatusCode != http.StatusOK {
				body := readAll(t, second)
				t.Fatalf("resume: status %d: %s", second.StatusCode, body)
			}
			part2 := readAll(t, second)
			if got := second.Trailer.Get("X-Kronlab-Resume-Token"); !strings.HasSuffix(got, "."+strconv.FormatInt(total, 10)) {
				t.Fatalf("final resume token %q does not end at position %d", got, total)
			}
			joined := append(append([]byte{}, part1...), part2...)
			if string(joined) != string(full) {
				t.Fatalf("cut-and-resume concatenation differs from the uncut stream (%d+%d vs %d bytes)",
					len(part1), len(part2), len(full))
			}
		})
	}
}

func TestGenerateResumeTokenRefusals(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ha, hb, _ := seekTestFactors(t, ts)
	base := fmt.Sprintf("%s/gen/%s/%s/edges", ts.URL, ha, hb)

	// Mint a real token at a pinned layout, then replay it against
	// requests whose stream digest differs — the cut (layout=2d cuts these
	// factors' 22 × 6 arcs 2 × 2 at four ranks, 1d 4 × 1), ranks, format
	// and loops all change the stream, so all must refuse.
	first := genGet(t, base+"?limit=2&ranks=4", "")
	readAll(t, first)
	token := first.Trailer.Get("X-Kronlab-Resume-Token")
	if token == "" {
		t.Fatal("no resume token")
	}
	for _, q := range []string{
		"?resume=" + token + "&ranks=4&layout=2d",
		"?resume=" + token + "&ranks=3",
		"?resume=" + token + "&ranks=4&format=binary",
		"?resume=" + token + "&ranks=4&loops=1",
		"?resume=garbage",
		"?resume=kr1.0123456789abcdef.0",         // wrong digest
		"?resume=" + token + "&ranks=4&offset=1", // two start positions
	} {
		resp := genGet(t, base+q, "")
		readAll(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
	// The token is honored by an otherwise-identical request.
	resp := genGet(t, base+"?resume="+token+"&ranks=4", "")
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid resume refused: status %d", resp.StatusCode)
	}
	// A token names the cut, not the layout flag: at two ranks both
	// layouts cut 2 × 1, one stream, so a 1d token resumes a 2d request.
	two := genGet(t, base+"?limit=2&ranks=2", "")
	readAll(t, two)
	resp = genGet(t, base+"?layout=2d&ranks=2&resume="+two.Trailer.Get("X-Kronlab-Resume-Token"), "")
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("a token of the same cut under the other layout: status %d, want 200", resp.StatusCode)
	}
	// A layout=2d&ranks=5 token whose digest spelled the layout flag, as
	// tokens did while the 2D plan was a grid dealt round robin, names a
	// position in a stream of another order: refused, never resumed.
	flag := fnv.New64a()
	fmt.Fprintf(flag, "%s,%s,|loops=false|twoD=true|ranks=5|binary=false", ha, hb)
	resp = genGet(t, fmt.Sprintf("%s?layout=2d&ranks=5&resume=kr1.%016x.3", base, flag.Sum64()), "")
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("a token digested with twoD=true: status %d, want 400", resp.StatusCode)
	}
}

func TestGenerateRangeRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ha, hb, total := seekTestFactors(t, ts)
	base := fmt.Sprintf("%s/gen/%s/%s/edges?format=binary", ts.URL, ha, hb)
	totalBytes := total * store.RecordSize

	probe := genGet(t, base, "")
	full := readAll(t, probe)
	if probe.Header.Get("Accept-Ranges") != "bytes" {
		t.Fatal("binary stream does not advertise Accept-Ranges")
	}
	if int64(len(full)) != totalBytes {
		t.Fatalf("full stream is %d bytes, want %d", len(full), totalBytes)
	}

	for _, tc := range []struct {
		name string
		hdr  string
		want []byte
		cr   string
	}{
		{"open-aligned", fmt.Sprintf("bytes=%d-", 3*store.RecordSize),
			full[3*store.RecordSize:], fmt.Sprintf("bytes %d-%d/%d", 3*store.RecordSize, totalBytes-1, totalBytes)},
		{"open-unaligned", "bytes=5-", full[5:], fmt.Sprintf("bytes 5-%d/%d", totalBytes-1, totalBytes)},
		{"bounded-unaligned", "bytes=7-40", full[7:41], fmt.Sprintf("bytes 7-40/%d", totalBytes)},
		{"bounded-overlong", fmt.Sprintf("bytes=8-%d", totalBytes+100),
			full[8:], fmt.Sprintf("bytes 8-%d/%d", totalBytes-1, totalBytes)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp := genGet(t, base, tc.hdr)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusPartialContent {
				t.Fatalf("status %d, want 206", resp.StatusCode)
			}
			if got := resp.Header.Get("Content-Range"); got != tc.cr {
				t.Errorf("Content-Range = %q, want %q", got, tc.cr)
			}
			if string(body) != string(tc.want) {
				t.Fatalf("ranged body differs from the full stream's slice (%d vs %d bytes)", len(body), len(tc.want))
			}
			if got := resp.Trailer.Get("X-Kronlab-Complete"); got != "true" {
				t.Errorf("X-Kronlab-Complete = %q, want true", got)
			}
		})
	}

	t.Run("past-end-416", func(t *testing.T) {
		resp := genGet(t, base, fmt.Sprintf("bytes=%d-", totalBytes))
		readAll(t, resp)
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("status %d, want 416", resp.StatusCode)
		}
		if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes */%d", totalBytes); got != want {
			t.Errorf("Content-Range = %q, want %q", got, want)
		}
	})

	t.Run("unsupported-forms-ignored", func(t *testing.T) {
		for _, hdr := range []string{"bytes=-100", "bytes=0-5,10-15", "arcs=0-5"} {
			resp := genGet(t, base, hdr)
			body := readAll(t, resp)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("Range %q: status %d, want 200 (ignored)", hdr, resp.StatusCode)
			}
			if int64(len(body)) != totalBytes {
				t.Errorf("Range %q: body %d bytes, want the whole stream", hdr, len(body))
			}
		}
	})

	t.Run("ndjson-ignores-range", func(t *testing.T) {
		nd := fmt.Sprintf("%s/gen/%s/%s/edges", ts.URL, ha, hb)
		resp := genGet(t, nd, "bytes=0-10")
		readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("ndjson with Range: status %d, want 200", resp.StatusCode)
		}
		if resp.Header.Get("Accept-Ranges") != "" {
			t.Error("ndjson stream advertises Accept-Ranges")
		}
	})
}

// TestGenerateTwoFactorChainParity pins the handler collapse: the
// two-factor route and the chain route spelled with the same factors
// must return identical bytes and identical product headers.
func TestGenerateTwoFactorChainParity(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ha, hb, _ := seekTestFactors(t, ts)
	for _, q := range []string{"", "?format=binary", "?layout=2d&offset=5"} {
		two := genGet(t, fmt.Sprintf("%s/gen/%s/%s/edges%s", ts.URL, ha, hb, q), "")
		chain := genGet(t, fmt.Sprintf("%s/gen/%s,%s/edges%s", ts.URL, ha, hb, q), "")
		twoBody := readAll(t, two)
		chainBody := readAll(t, chain)
		if two.StatusCode != chain.StatusCode {
			t.Fatalf("%q: status %d vs %d", q, two.StatusCode, chain.StatusCode)
		}
		if string(twoBody) != string(chainBody) {
			t.Fatalf("%q: two-factor and chain bodies differ", q)
		}
		for _, h := range []string{"X-Kronlab-Product-N", "X-Kronlab-Product-Arcs", "X-Kronlab-Factors", "X-Kronlab-Stream-Offset"} {
			if two.Header.Get(h) != chain.Header.Get(h) {
				t.Errorf("%q: header %s: %q vs %q", q, h, two.Header.Get(h), chain.Header.Get(h))
			}
		}
	}
}

// TestGenerateProductOverflowRefused is the header-overflow regression
// test: a product whose arc count exceeds int64 must be a 400, not a
// silently wrapped X-Kronlab-Product-Arcs. A 2-vertex factor with all
// four arcs raised to the 32nd power has 4^32 = 2^64 arcs (overflow)
// over 2^32 vertices (fits), so the count — not the vertex space — is
// what trips.
func TestGenerateProductOverflowRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	k2, err := graph.New(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	h := registerText(t, ts, k2, "full2")
	resp := genGet(t, fmt.Sprintf("%s/gen/%s/edges?power=32", ts.URL, h), "")
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400; body %q", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Kronlab-Product-Arcs") != "" {
		t.Error("overflowing product still sent an arc-count header")
	}
}
