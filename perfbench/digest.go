package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"goofi/internal/core"
	"goofi/internal/dbase"
)

// rowCheck is what the correctness gate learns from a campaign's rows.
type rowCheck struct {
	rows   int    // rows of the campaign, reference run included
	failed int    // rows the engine logged as failed
	cycles uint64 // simulated cycles summed over all rows
	digest string // SHA-256 over all rows in plan order
}

// planIndex orders a campaign's rows as the plan drew them: the reference
// run first, then experiments by index. Names are <campaign>/e<index> with
// at least four digits, so name order and plan order differ past e9999.
func planIndex(campaign, name string) (int, error) {
	if name == campaign+core.RefSuffix {
		return -1, nil
	}
	rest, ok := strings.CutPrefix(name, campaign+"/e")
	if !ok {
		return 0, fmt.Errorf("row %q is not an experiment of %s", name, campaign)
	}
	return strconv.Atoi(rest)
}

// checkRows digests every row of a campaign in plan order. The campaign name
// is left out of the digest, so equal plans under different names (the
// service's repeated submissions) digest equal.
func checkRows(campaign string, rows []dbase.ExperimentRow) (rowCheck, error) {
	type keyed struct {
		idx int
		row *dbase.ExperimentRow
	}
	ks := make([]keyed, len(rows))
	for i := range rows {
		idx, err := planIndex(campaign, rows[i].ExperimentName)
		if err != nil {
			return rowCheck{}, err
		}
		ks[i] = keyed{idx, &rows[i]}
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].idx < ks[j].idx })
	h := sha256.New()
	var n [8]byte
	field := func(b []byte) {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	out := rowCheck{rows: len(rows)}
	for _, k := range ks {
		r := k.row
		field([]byte(strconv.Itoa(k.idx)))
		field([]byte(strings.TrimPrefix(r.ParentExperiment, campaign)))
		field([]byte(r.ExperimentData))
		field([]byte(r.TerminationReason))
		field([]byte(r.Mechanism))
		field([]byte(strconv.FormatUint(r.Cycles, 10)))
		field([]byte(strconv.FormatUint(r.Iterations, 10)))
		field(r.StateVector)
		if r.TerminationReason == core.TermFailed {
			out.failed++
		}
		out.cycles += r.Cycles
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	return out, nil
}
