package serve

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"strings"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// errStreamLimit signals that the client-requested edge cap was reached;
// it truncates the stream without being an error to report.
var errStreamLimit = errors.New("serve: stream limit reached")

// handleGenerate serves GET /gen/{a}/{b}/edges and GET /gen/{chain}/edges
// — two spellings of one stream over the factor list resolveChain
// returns; parsing, counting, emission, Range and resume handling all
// live in streamChainEdges.
func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	gs, hashes, _, ok := s.resolveChain(w, r)
	if !ok {
		return
	}
	s.streamChainEdges(w, r, gs, hashes)
}

// resumeTokenPrefix versions the resume-token format; a token is
// "kr1.<16-hex fnv64a stream digest>.<decimal arc position>".
const resumeTokenPrefix = "kr1"

// streamDigest fingerprints everything that determines the stream's
// content and order: the factor hashes, the loops transform, the layout,
// the effective rank count and the wire format. A resume token minted for
// one digest is refused for any other — resuming a different stream (or
// the same chain under a different layout) would silently return wrong
// bytes. The client-side window (offset/limit/Range) is deliberately
// excluded: a token names a position in the one underlying stream, from
// wherever the cut happened.
func streamDigest(hashes []string, loops bool, twoD bool, ranks int, binaryFmt bool) string {
	h := fnv.New64a()
	for _, fh := range hashes {
		fmt.Fprintf(h, "%s,", fh)
	}
	fmt.Fprintf(h, "|loops=%t|twoD=%t|ranks=%d|binary=%t", loops, twoD, ranks, binaryFmt)
	return fmt.Sprintf("%016x", h.Sum64())
}

func makeResumeToken(digest string, pos int64) string {
	return fmt.Sprintf("%s.%s.%d", resumeTokenPrefix, digest, pos)
}

// parseResumeToken validates a client token against the current request's
// stream digest and returns the resume position.
func parseResumeToken(token, digest string, totalArcs int64) (int64, error) {
	parts := strings.Split(token, ".")
	if len(parts) != 3 || parts[0] != resumeTokenPrefix {
		return 0, fmt.Errorf("malformed resume token")
	}
	if parts[1] != digest {
		return 0, fmt.Errorf("resume token was issued for a different stream (digest %s, this stream %s)", parts[1], digest)
	}
	pos, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil || pos < 0 || pos > totalArcs {
		return 0, fmt.Errorf("resume token position %q out of range [0,%d]", parts[2], totalArcs)
	}
	return pos, nil
}

// byteRange is one parsed "bytes=start-end" request range; end < 0 means
// open-ended.
type byteRange struct {
	start, end int64
}

// parseRangeHeader parses a single-range bytes Range header. ok=false
// means the header is absent or of an unsupported form (suffix ranges,
// multiple ranges, other units) — per RFC 9110 an unsupported Range is
// ignored, not an error.
func parseRangeHeader(h string) (byteRange, bool) {
	raw, found := strings.CutPrefix(h, "bytes=")
	if !found || strings.Contains(raw, ",") {
		return byteRange{}, false
	}
	lo, hi, found := strings.Cut(raw, "-")
	if !found || lo == "" {
		return byteRange{}, false // suffix ranges need the unknown-length tail
	}
	start, err := strconv.ParseInt(lo, 10, 64)
	if err != nil || start < 0 {
		return byteRange{}, false
	}
	if hi == "" {
		return byteRange{start: start, end: -1}, true
	}
	end, err := strconv.ParseInt(hi, 10, 64)
	if err != nil || end < start {
		return byteRange{}, false
	}
	return byteRange{start: start, end: end}, true
}

// streamChainEdges is the one generate-stream implementation behind both
// /gen/{a}/{b}/edges and /gen/{chain}/edges: the chain product's arcs,
// produced by the dist chain engine on bounded concurrency and streamed
// without ever materializing the product server-side.
//
// Query parameters: loops=1 generates ⊗(A_d+I); layout=1d|2d picks the
// partitioning (default 1d); ranks=N the expander count (default
// GOMAXPROCS-bounded by Config.MaxRanks); format=ndjson|binary the wire
// format (default ndjson; binary is the 16-byte record format of
// internal/store); limit=N truncates the stream after N arcs; offset=N
// starts the stream N arcs in — the skipped prefix is never generated
// (dist.StreamChainFrom seeks arithmetically); resume=<token> continues
// a previous stream from the position its X-Kronlab-Resume-Token trailer
// recorded.
//
// Binary streams additionally honor single-range "Range: bytes=N-[M]"
// headers byte-exactly (the stream order is deterministic, so a byte
// position names a unique record prefix): 206 with Content-Range on
// success, 416 past the end. offset=, resume= and Range are three
// spellings of the same thing, so at most one may be used per request.
func (s *Server) streamChainEdges(w http.ResponseWriter, r *http.Request, gs []*graph.Graph, hashes []string) {
	q := r.URL.Query()
	loops := q.Get("loops") == "1"
	if loops {
		for i, g := range gs {
			gs[i] = g.WithFullSelfLoops()
		}
	}

	twoD := false
	switch q.Get("layout") {
	case "", "1d":
	case "2d":
		twoD = true
	default:
		writeError(w, http.StatusBadRequest, "layout must be 1d or 2d")
		return
	}

	ranks := s.cfg.MaxInflight
	if raw := q.Get("ranks"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, "bad ranks=%q", raw)
			return
		}
		ranks = v
	}
	if ranks > s.cfg.MaxRanks {
		ranks = s.cfg.MaxRanks
	}

	var limit int64 = -1
	if raw := q.Get("limit"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 {
			writeError(w, http.StatusBadRequest, "bad limit=%q", raw)
			return
		}
		limit = v
	}

	binaryFmt := false
	switch q.Get("format") {
	case "", "ndjson":
	case "binary":
		binaryFmt = true
	default:
		writeError(w, http.StatusBadRequest, "format must be ndjson or binary")
		return
	}

	// The chain build and its arc count are overflow-checked — a product
	// whose counts exceed int64 is a 400, never a silently wrapped header
	// (the old two-factor path multiplied counts unchecked).
	ch, err := core.NewChain(gs...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	totalArcs, err := ch.NumArcs()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	digest := streamDigest(hashes, loops, twoD, ranks, binaryFmt)

	// offset=, resume= and a binary Range header all name the stream's
	// start position; accepting two at once would mean silently ignoring
	// one of them.
	var offset int64
	starts := 0
	if raw := q.Get("offset"); raw != "" {
		v, err := strconv.ParseInt(raw, 10, 64)
		if err != nil || v < 0 || v > totalArcs {
			writeError(w, http.StatusBadRequest, "offset must be an integer in [0,%d], got %q", totalArcs, raw)
			return
		}
		offset = v
		starts++
	}
	if raw := q.Get("resume"); raw != "" {
		pos, err := parseResumeToken(raw, digest, totalArcs)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		offset = pos
		starts++
	}

	// totalBytes < 0 flags int64 overflow of the byte length; Range needs
	// exact byte arithmetic, so such streams fall back to whole responses.
	totalBytes, bytesOK := core.CheckedMul(totalArcs, store.RecordSize)
	if !bytesOK {
		totalBytes = -1
	}
	var (
		ranged     bool
		rangeStart int64
		skipBytes  int64 // leading bytes of the first record outside the range
		byteBudget int64 = -1
	)
	if h := r.Header.Get("Range"); h != "" && binaryFmt && totalBytes >= 0 {
		if br, ok := parseRangeHeader(h); ok {
			if br.start >= totalBytes {
				w.Header().Set("Content-Range", fmt.Sprintf("bytes */%d", totalBytes))
				writeError(w, http.StatusRequestedRangeNotSatisfiable,
					"range start %d beyond stream length %d", br.start, totalBytes)
				return
			}
			ranged = true
			rangeStart = br.start
			offset = br.start / store.RecordSize
			skipBytes = br.start % store.RecordSize
			if br.end >= 0 {
				end := br.end
				if end >= totalBytes {
					end = totalBytes - 1
				}
				byteBudget = end - br.start + 1
			}
			starts++
		}
	}
	if starts > 1 {
		writeError(w, http.StatusBadRequest, "offset=, resume= and Range are mutually exclusive stream positions")
		return
	}

	// Bound the engine's generation window to what the response can carry:
	// the client arc limit, and under a bounded Range the arcs its bytes
	// span. The emit path still enforces both exactly.
	streamLimit := limit
	if byteBudget >= 0 {
		arcs := (skipBytes + byteBudget + store.RecordSize - 1) / store.RecordSize
		if streamLimit < 0 || arcs < streamLimit {
			streamLimit = arcs
		}
	}

	if binaryFmt {
		w.Header().Set("Content-Type", "application/octet-stream")
		if totalBytes >= 0 {
			w.Header().Set("Accept-Ranges", "bytes")
		}
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("X-Kronlab-Product-N", strconv.FormatInt(ch.NumVertices(), 10))
	w.Header().Set("X-Kronlab-Product-Arcs", strconv.FormatInt(totalArcs, 10))
	w.Header().Set("X-Kronlab-Factors", strings.Join(hashes, ","))
	w.Header().Set("X-Kronlab-Stream-Offset", strconv.FormatInt(offset, 10))
	// Declared before the body starts, set after it ends: the trailers are
	// how a client distinguishes a complete stream from one cut short by
	// shutdown, timeout or a mid-run failure — the status line is long
	// gone by then. A client-requested limit= truncation counts complete,
	// and the resume token names the arc position right after the last
	// one emitted, ready to be passed back as resume=.
	w.Header().Set("Trailer", "X-Kronlab-Complete, X-Kronlab-Arcs-Written, X-Kronlab-Resume-Token")
	if ranged {
		end := totalBytes - 1
		if byteBudget >= 0 {
			end = rangeStart + byteBudget - 1
		}
		w.Header().Set("Content-Range", fmt.Sprintf("bytes %d-%d/%d", rangeStart, end, totalBytes))
		w.WriteHeader(http.StatusPartialContent)
	}

	bw := bufio.NewWriterSize(w, 1<<16)
	flusher, _ := w.(http.Flusher)
	var written int64
	var rec [store.RecordSize]byte
	// writeBytes applies the byte-exact Range window: trim the skipped
	// prefix of the first record, truncate the last to the budget. The
	// skip is always intra-record (start % RecordSize < RecordSize), so a
	// record never vanishes here — the caller's budget check gates whole
	// records.
	writeBytes := func(p []byte) error {
		if skipBytes > 0 {
			p = p[skipBytes:]
			skipBytes = 0
		}
		if byteBudget >= 0 {
			if int64(len(p)) > byteBudget {
				p = p[:byteBudget]
			}
			byteBudget -= int64(len(p))
		}
		_, err := bw.Write(p)
		return err
	}
	emit := func(batch []graph.Edge) error {
		for _, e := range batch {
			if limit >= 0 && written >= limit {
				return errStreamLimit
			}
			var err error
			if binaryFmt {
				if byteBudget == 0 {
					return errStreamLimit // range satisfied before this arc
				}
				store.PutRecord(rec[:], e.U, e.V)
				err = writeBytes(rec[:])
			} else {
				_, err = fmt.Fprintf(bw, "{\"u\":%d,\"v\":%d}\n", e.U, e.V)
			}
			if err != nil {
				return err // client went away; the stream tears down the expanders
			}
			written++
		}
		// Flush per batch so the stream reaches the client while the
		// generator is still running; a long product otherwise sits in
		// bufio and the response buffers until the run completes.
		if err := bw.Flush(); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	}

	recov := dist.Recovery{MaxRetries: s.cfg.GenRetries, Backoff: 5 * time.Millisecond}
	stats, err := dist.StreamChainFrom(r.Context(), ch, ranks, twoD, 0, offset, streamLimit, recov, emit)
	s.metrics.AddGenStats(stats)
	complete := err == nil || errors.Is(err, errStreamLimit)
	if complete {
		_ = bw.Flush()
	}
	// Trailer values: with the names declared up front, setting them on
	// the header map after the body is written sends them as trailers.
	w.Header().Set("X-Kronlab-Complete", strconv.FormatBool(complete))
	w.Header().Set("X-Kronlab-Arcs-Written", strconv.FormatInt(written, 10))
	w.Header().Set("X-Kronlab-Resume-Token", makeResumeToken(digest, offset+written))
}
