package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"sync"

	"ndss/internal/baseline"
	"ndss/internal/core"
	"ndss/internal/corpus"
	"ndss/internal/index"
	"ndss/internal/server"
)

// gate is the correctness check of a run, made outside every timed
// region. Each comparison counts as one attempted op and each mismatch
// as one failed op.
func gate(workload string, sc scale, seed int64, p *prepared, res *result, workdir string) error {
	if err := oracleSample(sc, seed, p, res); err != nil {
		return err
	}
	switch workload {
	case wlServeSharded:
		return mergedIndexCheck(sc, seed, p, res, workdir)
	case wlIngestChurn:
		return searchableCheck(sc, p, res)
	}
	return nil
}

// oracleSample compares the answers to a sample of the workload's
// queries with the brute-force scan of Definition 2. The scan is
// quadratic in the text length, so it runs over a few texts per query:
// the text a planted query was copied from, and some drawn at random.
// The system's answer, restricted to those texts, must equal the scan's.
func oracleSample(sc scale, seed int64, p *prepared, res *result) error {
	rng := rand.New(rand.NewSource(subSeed(seed, streamOracle)))
	type job struct {
		q     int
		texts []uint32 // ascending global ids
		got   []baseline.Span
	}
	jobs := make([]job, 0, sc.oracleQs)
	for len(jobs) < sc.oracleQs {
		q := rng.Intn(len(p.qs.tokens))
		ids := map[uint32]bool{}
		if p.qs.hit[q] {
			ids[p.qs.at[q].text] = true
		}
		for want := len(ids) + sc.oracleTxts; len(ids) < want; {
			ids[uint32(rng.Intn(p.corpus.NumTexts()))] = true
		}
		j := job{q: q}
		for id := range ids {
			j.texts = append(j.texts, id)
		}
		sort.Slice(j.texts, func(a, b int) bool { return j.texts[a] < j.texts[b] })
		rep, err := p.st.tgt.query("", q)
		if err != nil || rep.status != http.StatusOK {
			return fmt.Errorf("oracle query %d: status %d: %v", q, rep.status, err)
		}
		for _, m := range rep.matches {
			if ids[m.TextID] {
				j.got = append(j.got, baseline.Span{TextID: m.TextID, Start: m.Start, End: m.End})
			}
		}
		jobs = append(jobs, j)
	}

	// The scans are independent; run them on every core.
	bad := make([]bool, len(jobs))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				j := jobs[i]
				texts := make([][]uint32, len(j.texts))
				for k, id := range j.texts {
					texts[k] = p.corpus.Text(id)
				}
				want := baseline.MinHashScan(corpus.New(texts), p.fam, p.qs.tokens[j.q], queryTheta, lengthT)
				for k := range want {
					want[k].TextID = j.texts[want[k].TextID]
				}
				bad[i] = !equalSpans(want, j.got)
			}
		}()
	}
	for i := range jobs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, b := range bad {
		res.attempted++
		if b {
			res.failed++
			res.note("oracle: query %d differs from the brute-force scan", jobs[i].q)
		}
	}
	return nil
}

func equalSpans(a, b []baseline.Span) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mergedIndexCheck merges the shard indexes into one and compares, byte
// for byte, the "matches" member of the sharded tier's responses with
// that of a single server over the merged index.
func mergedIndexCheck(sc scale, seed int64, p *prepared, res *result, workdir string) error {
	merged := filepath.Join(workdir, "merged")
	offsets := make([]uint32, len(p.st.dirs))
	var base uint32
	for i, b := range p.st.builds {
		offsets[i] = base
		base += uint32(b.texts)
	}
	if err := index.MergeShards(p.st.dirs, offsets, merged); err != nil {
		return err
	}
	eng, err := core.Open(merged, nil)
	if err != nil {
		return err
	}
	defer eng.Close()
	single := server.New(eng, server.Config{CacheEntries: -1})
	tgt := p.st.tgt.(*httpTarget)
	rng := rand.New(rand.NewSource(subSeed(seed, streamOracle) + 1))
	for i := 0; i < sc.oracleQs; i++ {
		q := rng.Intn(len(tgt.bodies))
		body, status, err := tgt.post("", tgt.bodies[q])
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("merged-index check: sharded query %d: status %d: %v", q, status, err)
		}
		sharded, err := rawMatches(body)
		if err != nil {
			return err
		}
		rr := httptest.NewRecorder()
		single.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/search", bytes.NewReader(tgt.bodies[q])))
		if rr.Code != http.StatusOK {
			return fmt.Errorf("merged-index check: single-index query %d: status %d", q, rr.Code)
		}
		one, err := rawMatches(rr.Body.Bytes())
		if err != nil {
			return err
		}
		res.attempted++
		if !bytes.Equal(sharded, one) {
			res.failed++
			res.note("merged-index check: query %d: sharded and single-index matches differ", q)
		}
	}
	return nil
}

func rawMatches(body []byte) ([]byte, error) {
	var r struct {
		Matches json.RawMessage `json:"matches"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, err
	}
	return append([]byte(nil), r.Matches...), nil
}

// searchableCheck asserts that every ingested batch is searchable: the
// head of each batch's first text, sent as a query, must report that
// text, whose id follows from the ingest order.
func searchableCheck(sc scale, p *prepared, res *result) error {
	tgt := p.st.tgt.(*httpTarget)
	base := p.corpus.NumTexts()
	for i, b := range p.batches {
		body, err := encodeQuery(b[0][:queryLen])
		if err != nil {
			return err
		}
		raw, status, err := tgt.post("", body)
		if err != nil {
			return err
		}
		var resp searchResponse
		if status == http.StatusOK {
			if err := json.Unmarshal(raw, &resp); err != nil {
				return err
			}
		}
		res.attempted++
		if !covers(resp.Matches, uint32(base+i*sc.batchTexts), 0, queryLen-1) {
			res.failed++
			res.note("ingest-churn: batch %d is not searchable (status %d)", i, status)
		}
	}
	return nil
}
