package core

import (
	"sort"

	"semjoin/internal/mat"
	"semjoin/internal/rel"
)

// rankClusters computes the three-term score of §III-A step 4 for every
// refined cluster:
//
//	r(Wi) = |Wi|/|P|
//	      − max_{φ∈[1,kR]} avg_{(vj,L(ρ.vl))∈Wi} cos(x_{L(ρ.vl)}, x_{tj.Aφ})
//	      + max_{ε∈[1,m]}  avg_{(vj,L(ρ.vl))∈Wi} cos(x_{L(ρ.vl)}, x_{Aε})
//
// favouring clusters that match many paths (low null rate), differ from
// attributes already in S (versatile information), and are semantically
// close to a user keyword. The keyword maximising the third term becomes
// the candidate attribute name.
func (e *Extractor) rankClusters(keywords []string) {
	kwVecs := make([]mat.Vector, len(keywords))
	for i, kw := range keywords {
		kwVecs[i] = e.valueVec(kw)
	}
	exVecs := make([]mat.Vector, len(e.cfg.Exemplars))
	for i, ex := range e.cfg.Exemplars {
		exVecs[i] = e.valueVec(ex)
	}
	var attrCols []int
	if e.s != nil {
		for i := range e.s.Schema.Attrs {
			attrCols = append(attrCols, i)
		}
	}
	e.parallelForClusters(func(sc *scoredCluster) {
		if len(sc.w) == 0 {
			sc.term1, sc.term2, sc.term3, sc.score = 0, 0, 0, 0
			return
		}
		sc.term1 = float64(len(sc.w)) / float64(e.totalPaths)
		if e.cfg.DisableTerm1 {
			sc.term1 = 0
		}

		// Term 2: redundancy with existing attributes of S.
		sc.term2 = 0
		if e.s != nil && !e.cfg.DisableTerm2 {
			best := -2.0
			for _, col := range attrCols {
				var sum float64
				for _, w := range sc.w {
					if w.tupleIdx < 0 || w.tupleIdx >= e.s.Len() {
						continue
					}
					val := e.s.Tuples[w.tupleIdx][col]
					if val.IsNull() {
						continue
					}
					sum += mat.Cosine(w.endVec, e.valueVec(val.String()))
				}
				if avg := sum / float64(len(sc.w)); avg > best {
					best = avg
				}
			}
			if best > -2 {
				sc.term2 = best
			}
		}

		// Term 3: closeness to a user keyword; record the argmax keyword
		// and the per-keyword averages for greedy assignment.
		sc.term3, sc.bestKw = -2, ""
		sc.kwAvg = make([]float64, len(kwVecs))
		for ki, kv := range kwVecs {
			var sum float64
			for _, w := range sc.w {
				sum += mat.Cosine(w.endVec, kv)
			}
			avg := sum / float64(len(sc.w))
			sc.kwAvg[ki] = avg
			if avg > sc.term3 {
				sc.term3 = avg
				sc.bestKw = keywords[ki]
			}
		}
		// Exemplar values raise term3 (they exemplify user interest) but
		// cannot name an attribute.
		for _, xv := range exVecs {
			var sum float64
			for _, w := range sc.w {
				sum += mat.Cosine(w.endVec, xv)
			}
			if avg := sum / float64(len(sc.w)); avg > sc.term3 {
				sc.term3 = avg
			}
		}
		if sc.term3 == -2 {
			sc.term3 = 0
		}
		if e.cfg.DisableTerm3 {
			sc.term3 = 0
			for i := range sc.kwAvg {
				sc.kwAvg[i] = 0
			}
		}
		sc.score = sc.term1 - sc.term2 + sc.term3 -
			e.cfg.LengthPenalty*(avgPatternLen(sc)-1)
	})
}

// betterTie breaks exact score ties deterministically: larger W first,
// then shorter patterns (the paper observes that longer-path attributes
// have weaker associations).
func betterTie(a, b *scoredCluster) bool {
	if len(a.w) != len(b.w) {
		return len(a.w) > len(b.w)
	}
	return avgPatternLen(a) < avgPatternLen(b)
}

// ClusterInfo describes one refined pattern cluster for diagnostics and
// for the user-interaction step (it is what a UI would render next to the
// Accept prompt).
type ClusterInfo struct {
	Score, Term1, Term2, Term3 float64
	Keyword                    string
	Patterns                   []string
	Size                       int
	EndLabelCounts             map[string]int
}

// ClusterDiagnostics returns the refined clusters with their ranking
// breakdown, sorted by descending score. Valid after Discover.
func (e *Extractor) ClusterDiagnostics() []ClusterInfo {
	out := make([]ClusterInfo, 0, len(e.clusters))
	for _, sc := range e.clusters {
		info := ClusterInfo{
			Score: sc.score, Term1: sc.term1, Term2: sc.term2, Term3: sc.term3,
			Keyword: sc.bestKw, Size: len(sc.w),
			EndLabelCounts: map[string]int{},
		}
		for k := range sc.patterns {
			info.Patterns = append(info.Patterns, patternFromKey(k).String())
		}
		sort.Strings(info.Patterns)
		for _, w := range sc.w {
			info.EndLabelCounts[w.endLabel]++
		}
		out = append(out, info)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}

// avgPatternLen is the mean hop count of a cluster's patterns.
func avgPatternLen(sc *scoredCluster) float64 {
	if len(sc.patterns) == 0 {
		return 0
	}
	total := 0
	for k := range sc.patterns {
		total += len(patternFromKey(k))
	}
	return float64(total) / float64(len(sc.patterns))
}

// parallelForClusters applies fn to every cluster concurrently.
func (e *Extractor) parallelForClusters(fn func(*scoredCluster)) {
	e.parallelFor(len(e.clusters), 1, func(i int) { fn(e.clusters[i]) })
}

// selectScheme assembles the extraction scheme RG(vid, A1, ..., Am) by
// greedy (cluster, keyword) assignment: repeatedly take the unassigned
// cluster whose score — with its third term restricted to still-available
// keywords — is highest, and give it that keyword as attribute name. This
// generalises the paper's "pick in rank order, name by the argmax
// keyword" so a high-ranked impostor cannot starve the true cluster of a
// keyword it fits better. The optional Accept callback models the
// interactive vetting of §III-A step 4.
func (e *Extractor) selectScheme(keywords []string) *Scheme {
	maxAttrs := e.cfg.MaxAttrs
	if maxAttrs == 0 {
		maxAttrs = len(keywords)
	}
	usedKw := map[int]bool{}
	usedCl := map[*scoredCluster]bool{}
	var chosen []PatternCluster

	// available-keyword score of a cluster.
	restricted := func(sc *scoredCluster) (float64, int) {
		bestKw, bestAvg := -1, -2.0
		for ki, avg := range sc.kwAvg {
			if usedKw[ki] {
				continue
			}
			if avg > bestAvg {
				bestAvg, bestKw = avg, ki
			}
		}
		if bestKw < 0 {
			return -2, -1
		}
		return sc.term1 - sc.term2 + bestAvg -
			e.cfg.LengthPenalty*(avgPatternLen(sc)-1), bestKw
	}

	for len(chosen) < maxAttrs && len(usedKw) < len(keywords) {
		var best *scoredCluster
		bestScore, bestKw := -2.0, -1
		for _, sc := range e.clusters {
			if usedCl[sc] || len(sc.w) == 0 {
				continue
			}
			s, ki := restricted(sc)
			if ki < 0 {
				continue
			}
			if best == nil || s > bestScore ||
				(s == bestScore && betterTie(sc, best)) {
				best, bestScore, bestKw = sc, s, ki
			}
		}
		if best == nil {
			break
		}
		usedCl[best] = true
		pc := PatternCluster{
			Attr:    keywords[bestKw],
			attrVec: e.valueVec(keywords[bestKw]),
			patKeys: map[string]bool{},
		}
		keys := make([]string, 0, len(best.patterns))
		for k := range best.patterns {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pc.Patterns = append(pc.Patterns, patternFromKey(k))
			pc.patKeys[k] = true
		}
		if e.cfg.Accept != nil {
			sample := make([]WSample, 0, 5)
			for _, w := range best.w {
				sample = append(sample, WSample{Vertex: w.vertex, EndLabel: w.endLabel})
				if len(sample) == 5 {
					break
				}
			}
			if !e.cfg.Accept(pc.Attr, pc.Patterns, sample) {
				continue // vetoed: cluster consumed, keyword stays free
			}
		}
		usedKw[bestKw] = true
		chosen = append(chosen, pc)
	}

	attrs := make([]rel.Attribute, 0, len(chosen)+1)
	attrs = append(attrs, rel.Attribute{Name: "vid", Type: rel.KindInt})
	for _, pc := range chosen {
		attrs = append(attrs, rel.Attribute{Name: pc.Attr, Type: rel.KindString})
	}
	name := "extracted"
	if e.s != nil {
		name = e.s.Schema.Name + "_g"
	}
	return &Scheme{
		Schema:   rel.NewSchema(name, "vid", attrs...),
		Clusters: chosen,
		K:        e.cfg.K,
	}
}
