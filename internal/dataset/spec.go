// Package dataset synthesizes the twelve ER benchmarks used in the CERTA
// paper (Table 1): Abt-Buy, Amazon-Google, BeerAdvo-RateBeer, DBLP-ACM,
// DBLP-Scholar, Fodors-Zagats, iTunes-Amazon, Walmart-Amazon and the four
// "dirty" variants.
//
// The real DeepMatcher CSVs are not available offline, so each benchmark
// is regenerated synthetically with the same shape: schema (attribute
// names and counts), record counts per source, number of matching pairs,
// missing-value rates, per-source formatting noise (typos, token drops,
// abbreviations) and — for the dirty variants — the attribute-value
// displacement that defines those datasets.
//
// Generation is fully deterministic given (code, Options).
package dataset

import "fmt"

// Domain selects the value synthesizer family for a benchmark.
type Domain int

const (
	// Product datasets: AB, AG, WA (+ DWA).
	Product Domain = iota
	// Bibliographic datasets: DA, DS (+ DDA, DDS).
	Bibliographic
	// Beer dataset: BA.
	Beer
	// Restaurant dataset: FZ.
	Restaurant
	// Music datasets: IA (+ DIA).
	Music
)

// String names the domain.
func (d Domain) String() string {
	switch d {
	case Product:
		return "product"
	case Bibliographic:
		return "bibliographic"
	case Beer:
		return "beer"
	case Restaurant:
		return "restaurant"
	case Music:
		return "music"
	}
	return fmt.Sprintf("Domain(%d)", int(d))
}

// Spec describes one benchmark's shape, mirroring Table 1 of the paper.
type Spec struct {
	// Code is the two/three-letter dataset code used throughout the
	// paper's tables (AB, AG, BA, DA, DS, FZ, IA, WA, DDA, DDS, DIA, DWA).
	Code string
	// Name is the human-readable benchmark name.
	Name string
	// Domain picks the value synthesizer.
	Domain Domain
	// LeftName and RightName are the two source names (schema names).
	LeftName, RightName string
	// Attrs are the shared attribute names. All twelve benchmarks have
	// identical schemas on both sides (the paper's Table 1 reports a
	// single attribute count per dataset).
	Attrs []string
	// PaperMatches, PaperLeft and PaperRight are the ground-truth counts
	// from Table 1, used at Scale=1 and for reporting.
	PaperMatches, PaperLeft, PaperRight int
	// Dirty applies the attribute-displacement transform of the Dirty
	// benchmark family.
	Dirty bool
	// NaNRate is the probability that an optional attribute value is
	// missing.
	NaNRate float64
	// NoiseLevel in [0,1] scales the formatting noise between the two
	// views of a matching entity; higher values make matching harder.
	NoiseLevel float64
	// TitleAttr is the attribute that dirty displacement folds values
	// into (the DeepMatcher dirty datasets inject values into the title).
	TitleAttr string
}

// specs is the registry of all twelve benchmarks. Counts come straight
// from Table 1 of the paper.
var specs = []Spec{
	{
		Code: "AB", Name: "Abt-Buy", Domain: Product,
		LeftName: "Abt", RightName: "Buy",
		Attrs:        []string{"name", "description", "price"},
		PaperMatches: 5743, PaperLeft: 1081, PaperRight: 1092,
		NaNRate: 0.55, NoiseLevel: 0.45, TitleAttr: "name",
	},
	{
		Code: "AG", Name: "Amazon-Google", Domain: Product,
		LeftName: "Amazon", RightName: "Google",
		Attrs:        []string{"title", "manufacturer", "price"},
		PaperMatches: 1167, PaperLeft: 1363, PaperRight: 3226,
		NaNRate: 0.35, NoiseLevel: 0.5, TitleAttr: "title",
	},
	{
		Code: "BA", Name: "BeerAdvo-RateBeer", Domain: Beer,
		LeftName: "BeerAdvo", RightName: "RateBeer",
		Attrs:        []string{"Beer_Name", "Brew_Factory_Name", "Style", "ABV"},
		PaperMatches: 68, PaperLeft: 4345, PaperRight: 3000,
		NaNRate: 0.1, NoiseLevel: 0.3, TitleAttr: "Beer_Name",
	},
	{
		Code: "DA", Name: "DBLP-ACM", Domain: Bibliographic,
		LeftName: "DBLP", RightName: "ACM",
		Attrs:        []string{"title", "authors", "venue", "year"},
		PaperMatches: 2220, PaperLeft: 2614, PaperRight: 2292,
		NaNRate: 0.03, NoiseLevel: 0.2, TitleAttr: "title",
	},
	{
		Code: "DS", Name: "DBLP-Scholar", Domain: Bibliographic,
		LeftName: "DBLP", RightName: "Scholar",
		Attrs:        []string{"title", "authors", "venue", "year"},
		PaperMatches: 5547, PaperLeft: 2614, PaperRight: 64263,
		NaNRate: 0.25, NoiseLevel: 0.45, TitleAttr: "title",
	},
	{
		Code: "FZ", Name: "Fodors-Zagats", Domain: Restaurant,
		LeftName: "Fodors", RightName: "Zagats",
		Attrs:        []string{"name", "addr", "city", "phone", "type", "class"},
		PaperMatches: 110, PaperLeft: 533, PaperRight: 331,
		NaNRate: 0.05, NoiseLevel: 0.25, TitleAttr: "name",
	},
	{
		Code: "IA", Name: "iTunes-Amazon", Domain: Music,
		LeftName: "iTunes", RightName: "Amazon",
		Attrs: []string{"Song_Name", "Artist_Name", "Album_Name", "Genre",
			"Price", "CopyRight", "Time", "Released"},
		PaperMatches: 132, PaperLeft: 6907, PaperRight: 55923,
		NaNRate: 0.15, NoiseLevel: 0.35, TitleAttr: "Song_Name",
	},
	{
		Code: "WA", Name: "Walmart-Amazon", Domain: Product,
		LeftName: "Walmart", RightName: "Amazon",
		Attrs:        []string{"title", "category", "brand", "modelno", "price"},
		PaperMatches: 962, PaperLeft: 2554, PaperRight: 22074,
		NaNRate: 0.25, NoiseLevel: 0.4, TitleAttr: "title",
	},
	{
		Code: "DDA", Name: "Dirty DBLP-ACM", Domain: Bibliographic,
		LeftName: "DBLP", RightName: "ACM",
		Attrs:        []string{"title", "authors", "venue", "year"},
		PaperMatches: 7418, PaperLeft: 2614, PaperRight: 2292,
		Dirty: true, NaNRate: 0.05, NoiseLevel: 0.3, TitleAttr: "title",
	},
	{
		Code: "DDS", Name: "Dirty DBLP-Scholar", Domain: Bibliographic,
		LeftName: "DBLP", RightName: "Scholar",
		Attrs:        []string{"title", "authors", "venue", "year"},
		PaperMatches: 17223, PaperLeft: 2614, PaperRight: 64263,
		Dirty: true, NaNRate: 0.25, NoiseLevel: 0.5, TitleAttr: "title",
	},
	{
		Code: "DIA", Name: "Dirty iTunes-Amazon", Domain: Music,
		LeftName: "iTunes", RightName: "Amazon",
		Attrs: []string{"Song_Name", "Artist_Name", "Album_Name", "Genre",
			"Price", "CopyRight", "Time", "Released"},
		PaperMatches: 321, PaperLeft: 6907, PaperRight: 55923,
		Dirty: true, NaNRate: 0.15, NoiseLevel: 0.4, TitleAttr: "Song_Name",
	},
	{
		Code: "DWA", Name: "Dirty Walmart-Amazon", Domain: Product,
		LeftName: "Walmart", RightName: "Amazon",
		Attrs:        []string{"title", "category", "brand", "modelno", "price"},
		PaperMatches: 6144, PaperLeft: 2554, PaperRight: 22074,
		Dirty: true, NaNRate: 0.25, NoiseLevel: 0.45, TitleAttr: "title",
	},
}

// Codes lists all benchmark codes in the paper's table order.
func Codes() []string {
	out := make([]string, len(specs))
	for i, s := range specs {
		out[i] = s.Code
	}
	return out
}

// Get returns the spec for a benchmark code.
func Get(code string) (Spec, bool) {
	for _, s := range specs {
		if s.Code == code {
			return s, true
		}
	}
	return Spec{}, false
}

// MustGet is Get that panics on unknown codes (for static tables in the
// eval harness).
func MustGet(code string) Spec {
	s, ok := Get(code)
	if !ok {
		panic(fmt.Sprintf("dataset: unknown benchmark code %q (known: %v)", code, Codes()))
	}
	return s
}
