package metrics

import "sort"

// The map-based Delta, Merge and MergeAll that the merge-joins in
// snapshot.go replaced, kept verbatim as the reference the property test
// in merge_test.go pins them to. They key every sample by rebuilding
// seriesKey, so they do not depend on the key a sample carries.

func refKey(s Sample) string { return seriesKey(s.Name, s.Labels) }

func refDelta(s, prev Snapshot) Snapshot {
	prevByKey := make(map[string]Sample, len(prev.Samples))
	for _, p := range prev.Samples {
		prevByKey[refKey(p)] = p
	}
	out := Snapshot{Samples: make([]Sample, 0, len(s.Samples))}
	for _, cur := range s.Samples {
		d := refClone(cur)
		if p, ok := prevByKey[refKey(cur)]; ok && p.Kind == cur.Kind {
			switch cur.Kind {
			case KindCounter:
				d.Count = sub(cur.Count, p.Count)
			case KindHistogram:
				d.Count = sub(cur.Count, p.Count)
				d.Sum = sub(cur.Sum, p.Sum)
				for i := range d.Buckets {
					if i < len(p.Buckets) {
						d.Buckets[i] = sub(d.Buckets[i], p.Buckets[i])
					}
				}
			}
		}
		out.Samples = append(out.Samples, d)
	}
	return out
}

func refMerge(s, o Snapshot) Snapshot {
	byKey := make(map[string]Sample, len(s.Samples))
	order := make([]string, 0, len(s.Samples)+len(o.Samples))
	for _, smp := range s.Samples {
		byKey[refKey(smp)] = refClone(smp)
		order = append(order, refKey(smp))
	}
	for _, smp := range o.Samples {
		k := refKey(smp)
		acc, ok := byKey[k]
		if !ok {
			byKey[k] = refClone(smp)
			order = append(order, k)
			continue
		}
		if acc.Kind != smp.Kind {
			continue // conflicting kinds: keep the first
		}
		switch smp.Kind {
		case KindCounter:
			acc.Count += smp.Count
		case KindGauge:
			acc.Value += smp.Value
		case KindHistogram:
			acc.Count += smp.Count
			acc.Sum += smp.Sum
			for i := range smp.Buckets {
				if i < len(acc.Buckets) {
					acc.Buckets[i] += smp.Buckets[i]
				}
			}
		}
		byKey[k] = acc
	}
	sort.Strings(order)
	out := Snapshot{Samples: make([]Sample, 0, len(order))}
	for _, k := range order {
		out.Samples = append(out.Samples, byKey[k])
	}
	return out
}

func refMergeAll(snaps []Snapshot) Snapshot {
	var out Snapshot
	for i, s := range snaps {
		if i == 0 {
			out = Snapshot{Samples: append([]Sample(nil), s.Samples...)}
			continue
		}
		out = refMerge(out, s)
	}
	return out
}

func refClone(s Sample) Sample {
	c := s
	c.Labels = s.Labels.clone()
	c.Bounds = append([]uint64(nil), s.Bounds...)
	c.Buckets = append([]uint64(nil), s.Buckets...)
	return c
}
