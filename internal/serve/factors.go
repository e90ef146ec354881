package serve

import (
	"bufio"
	"encoding/binary"
	"net/http"
	"strconv"
	"strings"

	"kronlab/internal/graph"
)

// kronlabBinaryMagic mirrors the magic of graph.WriteBinary, used here
// only to sniff the upload format when no explicit Content-Type is set.
const kronlabBinaryMagic = uint64(0x4b524f4e4c414201)

// handleRegister ingests a factor graph from the request body — text edge
// list or the kronlab binary format, auto-detected by magic unless forced
// with Content-Type: application/octet-stream — symmetrizes text input,
// and registers it content-addressed. Registering an already-known graph
// is a 200 with the existing record; a new graph is a 201.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	body := bufio.NewReader(http.MaxBytesReader(w, r.Body, s.cfg.MaxUploadBytes))
	head, _ := body.Peek(8)
	isBinary := r.Header.Get("Content-Type") == "application/octet-stream" ||
		(len(head) == 8 && binary.LittleEndian.Uint64(head) == kronlabBinaryMagic)

	var g *graph.Graph
	if isBinary {
		var err error
		g, err = graph.ReadBinary(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "binary edge list: %v", err)
			return
		}
	} else {
		edges, n, err := graph.ReadEdgeList(body)
		if err != nil {
			writeError(w, http.StatusBadRequest, "text edge list: %v", err)
			return
		}
		if n == 0 {
			writeError(w, http.StatusBadRequest, "empty edge list")
			return
		}
		g, err = graph.NewUndirected(n, edges)
		if err != nil {
			writeError(w, http.StatusBadRequest, "building graph: %v", err)
			return
		}
	}

	info, created := s.reg.Register(g, r.URL.Query().Get("name"))
	status := http.StatusOK
	if created {
		status = http.StatusCreated
	}
	writeJSON(w, status, info)
}

func (s *Server) handleListFactors(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"factors": s.reg.List()})
}

func (s *Server) handleGetFactor(w http.ResponseWriter, r *http.Request) {
	hash, err := s.reg.Resolve(r.PathValue("hash"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	_, info, _ := s.reg.Get(hash)
	writeJSON(w, http.StatusOK, info)
}

// resolveFactor maps a path component (hash, prefix, or name) to the
// registered graph, writing the 404 itself on failure.
func (s *Server) resolveFactor(w http.ResponseWriter, key string) (*graph.Graph, string, bool) {
	hash, err := s.reg.Resolve(key)
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return nil, "", false
	}
	g, _, _ := s.reg.Get(hash)
	return g, hash, true
}

// maxChainPower caps power=k: past this even 2-vertex factors overflow
// int64 vertex counts, so larger k only buys a bigger error message.
const maxChainPower = 64

// resolveChain maps the factor list a /gt or /gen request names to the
// registered graphs and their hashes. The list is spelled either
// {a}/{b} — the paper's two-factor form, pair = true — or {chain}, a
// comma-separated list of registry keys (hash, ≥8-char prefix, or name)
// for C = A₁⊗A₂⊗…⊗Aₖ; a single-key {chain} with power=k names the
// Kronecker power A^{⊗k} without registering k copies. Both spellings
// run the same laws and the same engine. It writes the failure response
// itself: 404 for unknown keys, 400 for a malformed spec.
func (s *Server) resolveChain(w http.ResponseWriter, r *http.Request) (gs []*graph.Graph, hashes []string, pair, ok bool) {
	keys := []string{r.PathValue("a"), r.PathValue("b")}
	raw := r.PathValue("chain")
	pair = raw == "" // the {a}/{b} patterns have no {chain} segment
	if !pair {
		keys = strings.Split(raw, ",")
		for i := range keys {
			keys[i] = strings.TrimSpace(keys[i])
			if keys[i] == "" {
				writeError(w, http.StatusBadRequest, "empty factor key in chain %q", raw)
				return nil, nil, false, false
			}
		}
		if rawK := r.URL.Query().Get("power"); rawK != "" {
			k, err := strconv.Atoi(rawK)
			if err != nil || k < 1 || k > maxChainPower {
				writeError(w, http.StatusBadRequest, "power must be an integer in [1,%d], got %q", maxChainPower, rawK)
				return nil, nil, false, false
			}
			if len(keys) != 1 {
				writeError(w, http.StatusBadRequest, "power=%d needs a single-factor chain, got %d keys", k, len(keys))
				return nil, nil, false, false
			}
			key := keys[0]
			keys = make([]string, k)
			for i := range keys {
				keys[i] = key
			}
		}
	}
	gs = make([]*graph.Graph, len(keys))
	hashes = make([]string, len(keys))
	for i, key := range keys {
		if gs[i], hashes[i], ok = s.resolveFactor(w, key); !ok {
			return nil, nil, false, false
		}
	}
	return gs, hashes, pair, true
}
