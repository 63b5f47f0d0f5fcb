package main

import (
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"sort"
	"time"

	"sheriff/internal/extract"
	"sheriff/internal/geo"
	"sheriff/internal/htmlx"
	"sheriff/internal/money"
	"sheriff/internal/netsim"
	"sheriff/internal/store"
)

// Parse and extraction have no seam the program exposes, so the traced
// run times them by replaying the run's captured inputs through their
// public functions: a sample of the checks (and crawl fetches) is
// re-fetched from the unwrapped retailers — a page is a deterministic
// function of URL, source, User-Agent and instant, which is what the
// backend's page cache relies on — and the pages go through
// htmlx.ParseString, extract.Derive and Anchor.Extract.

// replaySample is the most checks or crawl products replayed; replayPasses
// passes are timed and the median pass is kept.
const (
	replaySample = 240
	replayPasses = 3
)

func fetchPage(reg *netsim.Registry, rawURL string, src netip.Addr, ua string, at time.Time) (string, error) {
	tr := netsim.NewTransport(reg, netsim.NewClock(at), src)
	req, err := http.NewRequest(http.MethodGet, rawURL, nil)
	if err != nil {
		return "", err
	}
	if ua != "" {
		req.Header.Set("User-Agent", ua)
	}
	resp, err := tr.RoundTrip(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: status %d", rawURL, resp.StatusCode)
	}
	return string(body), nil
}

// spread picks at most k indices of n, evenly spaced.
func spread(n, k int) []int {
	if n <= k {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	out := make([]int, k)
	for i := range out {
		out[i] = i * n / k
	}
	return out
}

// replayCheckPages returns per-check times of parsing its 15 pages,
// deriving the anchor from the user page and extracting the 14 vantage
// point prices, each the median of replayPasses passes over the sample.
func replayCheckPages(reg *netsim.Registry, users []crowdUser, checks []checkInput, outs []checkOutcome) (parse, derive, extr time.Duration, err error) {
	type sample struct {
		user  string
		pages []string // user page first, then one per vantage point
		hl    string
		cur   money.Currency
	}
	vps := geo.VantagePoints()
	var samples []sample
	for _, i := range spread(len(checks), replaySample) {
		in, at := checks[i], outs[i].instant
		u := users[in.user]
		s := sample{hl: in.req.Highlight, cur: u.loc.Country.Currency}
		page, err := fetchPage(reg, in.req.URL, u.addr, in.req.UserAgent, at)
		if err != nil {
			return 0, 0, 0, err
		}
		s.pages = append(s.pages, page)
		for _, vp := range vps {
			page, err := fetchPage(reg, in.req.URL, vp.Addr, vp.Browser.UserAgent(), at)
			if err != nil {
				return 0, 0, 0, err
			}
			s.pages = append(s.pages, page)
		}
		samples = append(samples, s)
	}
	var parses, derives, extracts []time.Duration
	for pass := 0; pass < replayPasses; pass++ {
		var p, d, e time.Duration
		for _, s := range samples {
			docs := make([]*htmlx.Node, len(s.pages))
			for j, page := range s.pages {
				t0 := time.Now()
				doc, err := htmlx.ParseString(page)
				p += time.Since(t0)
				if err != nil {
					return 0, 0, 0, err
				}
				docs[j] = doc
			}
			t0 := time.Now()
			anchor, err := extract.Derive(docs[0], s.hl, s.cur)
			d += time.Since(t0)
			if err != nil {
				return 0, 0, 0, fmt.Errorf("replay derive: %w", err)
			}
			t0 = time.Now()
			for j, vp := range vps {
				anchor.Extract(docs[j+1], vp.Location.Country.Currency)
			}
			e += time.Since(t0)
		}
		parses, derives, extracts = append(parses, p), append(derives, d), append(extracts, e)
	}
	n := time.Duration(max(1, len(samples)))
	return medianDur(parses) / n, medianDur(derives) / n, medianDur(extracts) / n, nil
}

// replayCrawlPages returns per-fetch times of parsing a crawl page and
// extracting its price with the crawl's anchor, over a sample of the
// crawled (product, round) cells.
func replayCrawlPages(reg *netsim.Registry, st store.Reader, anchors map[string]extract.Anchor) (parse, extr time.Duration, err error) {
	type cell struct {
		url    string
		domain string
		at     time.Time
	}
	seen := map[cell]bool{}
	var cells []cell
	for o := range st.Scan(store.Query{Source: store.SourceCrawl, Round: -1}) {
		c := cell{o.URL, o.Domain, o.Time}
		if !seen[c] {
			seen[c] = true
			cells = append(cells, c)
		}
	}
	sort.Slice(cells, func(i, j int) bool {
		if !cells[i].at.Equal(cells[j].at) {
			return cells[i].at.Before(cells[j].at)
		}
		return cells[i].url < cells[j].url
	})
	vps := geo.VantagePoints()
	type sample struct {
		pages  []string
		anchor extract.Anchor
	}
	var samples []sample
	for _, i := range spread(len(cells), replaySample) {
		c := cells[i]
		s := sample{anchor: anchors[c.domain]}
		for _, vp := range vps {
			page, err := fetchPage(reg, c.url, vp.Addr, vp.Browser.UserAgent(), c.at)
			if err != nil {
				return 0, 0, err
			}
			s.pages = append(s.pages, page)
		}
		samples = append(samples, s)
	}
	var parses, extracts []time.Duration
	for pass := 0; pass < replayPasses; pass++ {
		var p, e time.Duration
		for _, s := range samples {
			for j, page := range s.pages {
				t0 := time.Now()
				doc, err := htmlx.ParseString(page)
				p += time.Since(t0)
				if err != nil {
					return 0, 0, err
				}
				t0 = time.Now()
				s.anchor.Extract(doc, vps[j].Location.Country.Currency)
				e += time.Since(t0)
			}
		}
		parses, extracts = append(parses, p), append(extracts, e)
	}
	n := time.Duration(max(1, len(samples)*len(vps)))
	return medianDur(parses) / n, medianDur(extracts) / n, nil
}
