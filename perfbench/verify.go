package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"sheriff"
	"sheriff/client"
	"sheriff/internal/api"
	"sheriff/internal/core"
	"sheriff/internal/fx"
	"sheriff/internal/geo"
	"sheriff/internal/money"
	"sheriff/internal/shop"
	"sheriff/internal/store"
)

// The checks in this file compute what the program should have answered
// from the simulated retailers' ground truth (package shop: the world the
// program measures, not the program) and the day's FX fixings, and
// compare. Nothing here calls the program's extraction, currency filter
// or aggregation to obtain an expected value.

// failures collects check failures, keeping the first few messages.
type failures struct {
	n    int
	msgs []string
}

func (f *failures) addf(format string, args ...any) {
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

// vpVisit is the visit a vantage point's fetch presents to a retailer:
// its location, its address and the profile its User-Agent header parses
// to, at the given instant.
func vpVisit(vp geo.VantagePoint, at time.Time) shop.Visit {
	return shop.Visit{Loc: vp.Location, Time: at, IP: vp.Addr.String(), Browser: geo.ProfileFromUA(vp.Browser.UserAgent())}
}

// referenceVariation is the paper's currency filter (Sec. 2.2), written
// out from its definition: each quote pins a USD interval between the
// day's extreme fixings, widened by half a minor unit of display
// rounding; the conservative ratio is the largest lower bound over the
// smallest upper bound, and variation is real only when it exceeds 1.
func referenceVariation(market *fx.Market, quotes []money.Amount, day time.Time) (float64, bool) {
	if len(quotes) < 2 {
		return 1, false
	}
	maxLow, minHigh := math.Inf(-1), math.Inf(1)
	for _, q := range quotes {
		lo, hi := market.Rate(q.Currency, day)
		v := float64(q.Units) / math.Pow(10, float64(q.Currency.Exponent))
		slack := 0.5 / math.Pow(10, float64(q.Currency.Exponent))
		low, high := (v-slack)*lo, (v+slack)*hi
		maxLow, minHigh = math.Max(maxLow, low), math.Min(minHigh, high)
	}
	if minHigh <= 0 {
		return 1, false
	}
	r := math.Max(maxLow/minHigh, 1)
	return r, r > 1
}

func approxEqual(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// verifyCheck compares one check result with the ground truth: one price
// per vantage point in geo.VantagePoints() order, each OK price equal to
// the retailer's display price for that vantage point at the check's
// instant, not-OK exactly where the price is withheld, and the ratio and
// verdict of the currency filter over those true prices.
func verifyCheck(f *failures, w *core.World, in checkInput, out checkOutcome) {
	res := out.res
	domain := res.Domain
	r, ok := w.Retailers[domain]
	if !ok || "http://"+domain+"/product/"+res.SKU != in.req.URL || res.SKU != in.product.SKU {
		f.addf("check %s: answered for %s/%s", in.req.URL, domain, res.SKU)
		return
	}
	vps := geo.VantagePoints()
	if len(res.Prices) != len(vps) {
		f.addf("check %s: %d prices, want %d", in.req.URL, len(res.Prices), len(vps))
		return
	}
	var quotes []money.Amount
	for i, vp := range vps {
		got := res.Prices[i]
		if got.VP != vp.ID {
			f.addf("check %s: price %d from %s, want %s", in.req.URL, i, got.VP, vp.ID)
			return
		}
		visit := vpVisit(vp, out.instant)
		if !r.PriceDisclosed(in.product, visit) {
			if got.OK {
				f.addf("check %s at %s: price %d %s where the retailer withholds it", in.req.URL, vp.ID, got.PriceUnits, got.Currency)
			}
			continue
		}
		want := r.DisplayPrice(in.product, visit)
		if !got.OK || got.PriceUnits != want.Units || got.Currency != want.Currency.Code {
			f.addf("check %s at %s: got %d %s ok=%v (%s), want %d %s", in.req.URL, vp.ID, got.PriceUnits, got.Currency, got.OK, got.Err, want.Units, want.Currency.Code)
			continue
		}
		quotes = append(quotes, want)
	}
	ratio, varies := referenceVariation(w.Market, quotes, out.instant)
	if !approxEqual(res.Ratio, ratio) || res.Varies != varies {
		f.addf("check %s: ratio %v varies %v, want %v %v", in.req.URL, res.Ratio, res.Varies, ratio, varies)
	}
}

// verifyCrawl checks every crawl row against the ground truth for its
// product, vantage point and round instant, and that the crawl covered
// products × rounds × vantage points exactly once. It returns the number
// of rows whose fetch failed although the retailer shows the price.
func verifyCrawl(f *failures, w *core.World, st store.Reader, start time.Time, products, rounds int) (failedFetches int) {
	vps := map[string]geo.VantagePoint{}
	for _, vp := range geo.VantagePoints() {
		vps[vp.ID] = vp
	}
	type cell struct {
		domain, sku, vp string
		round           int
	}
	seen := map[cell]bool{}
	perDomain := map[string]map[string]bool{}
	for o := range st.Scan(store.Query{Source: store.SourceCrawl, Round: -1}) {
		c := cell{o.Domain, o.SKU, o.VP, o.Round}
		if seen[c] {
			f.addf("crawl row %v stored twice", c)
		}
		seen[c] = true
		if perDomain[o.Domain] == nil {
			perDomain[o.Domain] = map[string]bool{}
		}
		perDomain[o.Domain][o.SKU] = true
		r, okR := w.Retailers[o.Domain]
		vp, okV := vps[o.VP]
		p, okP := shop.Product{}, false
		if okR {
			p, okP = r.Catalog().BySKU(o.SKU)
		}
		if !okR || !okV || !okP || o.Round < 0 || o.Round >= rounds {
			f.addf("crawl row %v names no crawled product", c)
			continue
		}
		at := start.Add(time.Duration(o.Round) * 24 * time.Hour)
		if !o.Time.Equal(at) {
			f.addf("crawl row %v at %s, want %s", c, o.Time, at)
		}
		visit := vpVisit(vp, at)
		if !r.PriceDisclosed(p, visit) {
			if o.OK {
				f.addf("crawl row %v: price where the retailer withholds it", c)
			}
			continue
		}
		want := r.DisplayPrice(p, visit)
		if !o.OK {
			failedFetches++
		}
		if !o.OK || o.PriceUnits != want.Units || o.Currency != want.Currency.Code {
			f.addf("crawl row %v: got %d %s ok=%v (%s), want %d %s", c, o.PriceUnits, o.Currency, o.OK, o.Err, want.Units, want.Currency.Code)
		}
	}
	want := 0
	for _, d := range w.Crawled {
		n := min(products, w.Retailers[d].Catalog().Len())
		want += n * rounds * len(vps)
		if len(perDomain[d]) != n {
			f.addf("crawl of %s covered %d products, want %d", d, len(perDomain[d]), n)
		}
	}
	if len(seen) != want {
		f.addf("crawl stored %d distinct rows, want %d", len(seen), want)
	}
	return failedFetches
}

// verifyReports compares every domain report the server answers from its
// incremental aggregates with api.FullDomainReport recomputed over the
// store.
func verifyReports(ctx context.Context, f *failures, cl *client.Client, st store.Reader, market *fx.Market) error {
	for _, d := range st.Domains() {
		got, err := cl.DomainReport(ctx, d)
		if err != nil {
			return fmt.Errorf("domain report %s: %w", d, err)
		}
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(api.FullDomainReport(st, market, d))
		if string(gb) != string(wb) {
			f.addf("domain report %s from aggregates differs from full recompute:\n got %s\nwant %s", d, gb, wb)
		}
	}
	return nil
}

// sameObservation reports whether two rows carry the same content.
func sameObservation(a, b sheriff.Observation) bool {
	ta, tb := a.Time, b.Time
	a.Time, b.Time = time.Time{}, time.Time{}
	return ta.Equal(tb) && a == b
}
