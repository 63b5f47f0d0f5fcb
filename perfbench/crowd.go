package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"sheriff"
	"sheriff/client"
	"sheriff/internal/core"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
)

// crowdUser is one simulated person: where their address geo-locates and
// which browser they use. The user-side page of a check is rendered for
// them, so the highlight they submit is in their local currency.
type crowdUser struct {
	id      string
	loc     geo.Location
	addr    netip.Addr
	browser geo.BrowserProfile
}

// checkInput is one generated check: who submits it, in which round, and
// the request their browser extension sends.
type checkInput struct {
	round   int
	user    int
	product shop.Product
	req     sheriff.CheckRequest
}

var browsers = []geo.BrowserProfile{
	{OS: "Windows", Browser: "Chrome"},
	{OS: "Windows", Browser: "Firefox"},
	{OS: "Linux", Browser: "Firefox"},
	{OS: "Macintosh", Browser: "Safari"},
	{OS: "Macintosh", Browser: "Chrome"},
}

// makeUsers draws the crowd: countries zipf-weighted (the paper's beta
// was dominated by a few countries), a random city, a host address in
// that city's block and a browser.
func makeUsers(rng *rand.Rand, n int) ([]crowdUser, error) {
	users := make([]crowdUser, 0, n)
	hosts := map[string]int{}
	for i := 0; i < n; i++ {
		c := geo.AllCountries[zipf(rng, len(geo.AllCountries))]
		cities := geo.Cities(c)
		loc := geo.Location{Country: c, City: cities[rng.Intn(len(cities))]}
		hosts[loc.String()]++
		addr, err := geo.AddrFor(loc, 100+hosts[loc.String()]%150)
		if err != nil {
			return nil, fmt.Errorf("user address: %w", err)
		}
		users = append(users, crowdUser{
			id: fmt.Sprintf("bench-u%03d", i+1), loc: loc, addr: addr,
			browser: browsers[rng.Intn(len(browsers))],
		})
	}
	return users, nil
}

// zipf draws an index in [0, n) with weight 1/(i+1).
func zipf(rng *rand.Rand, n int) int {
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / float64(i+1)
	}
	x := rng.Float64() * total
	for i := 0; i < n; i++ {
		x -= 1 / float64(i+1)
		if x <= 0 {
			return i
		}
	}
	return n - 1
}

// makeChecks generates the crowd phase's checks in the paper's traffic
// shape: wl.share of them zipf-distributed over the popular retailers
// (narrowed to their first wl.hotProducts products when set), the rest
// walking the long tail with a jittered cursor. Each user "sees" the
// product's display price for their own visit at the round's instant and
// highlights it; products whose price is withheld from that user are
// passed over, as a person would.
//
// Products whose page shows the highlighted text more than once (a
// recommended product at the same price) are passed over too, and counted
// in skipped: the check sends only the text, and extract.Derive then
// anchors on the deepest element holding it — the recommendation — so
// every vantage point reports the other product's price. How often that
// happens depends on the seed, so such checks cannot be kept as a steady
// share of failures; the fault is recorded in CHANGES.md instead.
func makeChecks(rng *rand.Rand, w *core.World, users []crowdUser, wl workload, count int, start time.Time) (out []checkInput, skipped int) {
	out = make([]checkInput, 0, count)
	cursor := 0
	for i := 0; i < count; i++ {
		round := i / wl.perRound
		at := start.Add(time.Duration(round) * 24 * time.Hour)
		u := rng.Intn(len(users))
		user := users[u]
		visit := shop.Visit{Loc: user.loc, Time: at, IP: user.addr.String(), Browser: user.browser}
		var domain, highlight string
		var product shop.Product
		for found := false; !found; {
			ps := []shop.Product(nil)
			if rng.Float64() < wl.share || len(w.Tail) == 0 {
				domain = w.Interesting[zipf(rng, len(w.Interesting))]
				ps = w.Retailers[domain].Catalog().Products()
				if wl.hotProducts > 0 {
					ps = ps[:min(wl.hotProducts, len(ps))]
				}
			} else {
				domain = w.Tail[cursor%len(w.Tail)]
				cursor += 1 + rng.Intn(2)
				ps = w.Retailers[domain].Catalog().Products()
			}
			for tries := 0; tries < 16 && !found; tries++ {
				product = ps[rng.Intn(len(ps))]
				r := w.Retailers[domain]
				if r.PriceDisclosed(product, visit) {
					amt := r.DisplayPrice(product, visit)
					highlight = money.Format(amt, amt.Currency.Style())
					found = strings.Count(r.RenderProduct(product, visit), highlight) == 1
					if !found {
						skipped++
					}
				}
			}
		}
		out = append(out, checkInput{round: round, user: u, product: product, req: sheriff.CheckRequest{
			URL:       "http://" + domain + "/product/" + product.SKU,
			Highlight: highlight,
			UserAddr:  user.addr,
			UserID:    user.id,
			UserAgent: user.browser.UserAgent(),
		}})
	}
	return out, skipped
}

// checkOutcome is what one SDK call returned and how long it took.
type checkOutcome struct {
	res     sheriff.CheckResult
	err     error
	latency time.Duration
	instant time.Time
}

type opKey struct{}

// opHeader carries a check's operation id to the traced server handler,
// so client and server spans of one check share it.
const opHeader = "X-Bench-Op"

// opTransport stamps the operation id from the request context.
type opTransport struct{ base http.RoundTripper }

func (t opTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if op, ok := r.Context().Value(opKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.Itoa(op))
	}
	return t.base.RoundTrip(r)
}

// newSDK builds the SDK client the load uses: no retries, so a failed
// check is counted rather than hidden.
func newSDK(url string, traced bool) (*client.Client, *http.Transport) {
	tr := &http.Transport{}
	var rt http.RoundTripper = tr
	if traced {
		rt = opTransport{tr}
	}
	return client.New(url, client.Options{
		HTTPClient:  &http.Client{Transport: rt, Timeout: 60 * time.Second},
		MaxAttempts: 1,
	}), tr
}

// roundStat is one round's wall and process CPU time.
type roundStat struct {
	checks    int
	wall, cpu time.Duration
}

// runChecks drives the checks through the SDK from one closed-loop
// client. All checks of a round share one simulated instant; the world
// clock moves a day at each round barrier.
func runChecks(ctx context.Context, cl *client.Client, w *core.World, checks []checkInput, onCall func(op int, start, end time.Time)) ([]checkOutcome, []roundStat) {
	out := make([]checkOutcome, len(checks))
	var rounds []roundStat
	for lo := 0; lo < len(checks); {
		instant := w.Clock.Now()
		cpu0, t0 := cpuTime(), time.Now()
		i := lo
		for ; i < len(checks) && checks[i].round == checks[lo].round; i++ {
			cctx := ctx
			if onCall != nil {
				cctx = context.WithValue(ctx, opKey{}, i)
			}
			start := time.Now()
			res, err := cl.Check(cctx, checks[i].req)
			end := time.Now()
			out[i] = checkOutcome{res: res, err: err, latency: end.Sub(start), instant: instant}
			if onCall != nil {
				onCall(i, start, end)
			}
		}
		rounds = append(rounds, roundStat{i - lo, time.Since(t0), cpuTime() - cpu0})
		w.Clock.Advance(24 * time.Hour)
		lo = i
	}
	return out, rounds
}
