package arachnet

import (
	"fmt"
	"strings"

	"repro/internal/energy"
)

// DeploymentRow summarizes one tag position's physical situation.
type DeploymentRow struct {
	TID           uint8
	Element       string
	Zone          string
	PathLossDB    float64
	HarvestVolts  float64 // PZT peak voltage from the carrier
	AmplifiedV    float64 // 8-stage multiplier output
	ChargeSeconds float64 // 0 -> activation
	Period        Period
}

// DeploymentReport describes every provisioned tag's position: where it
// sits on the BiW, how well the carrier reaches it, and what that means
// for charging — the operational counterpart of Figs. 10 and 11.
func (n *Network) DeploymentReport() ([]DeploymentRow, error) {
	var rows []DeploymentRow
	for id, dev := range n.byTID {
		if dev == nil {
			continue
		}
		mount, err := n.Deployment.TagMount(id)
		if err != nil {
			return nil, err
		}
		loss, err := n.Deployment.TagLossDB(id)
		if err != nil {
			return nil, err
		}
		vp, err := n.Channel.TagPeakVoltage(id)
		if err != nil {
			return nil, err
		}
		h := energy.NewHarvester(8)
		vdd := h.Multiplier.OpenCircuitVoltage(vp)
		charge, err := h.ChargingTime(vp, 0, h.Cutoff.HighThreshold())
		if err != nil {
			return nil, fmt.Errorf("arachnet: tag %d: %w", id, err)
		}
		rows = append(rows, DeploymentRow{
			TID: uint8(id), Element: mount.Element, Zone: mount.Zone,
			PathLossDB: loss, HarvestVolts: vp, AmplifiedV: vdd,
			ChargeSeconds: charge, Period: dev.Cfg.Period,
		})
	}
	return rows, nil
}

// FormatDeployment renders the report as an aligned text table.
func FormatDeployment(rows []DeploymentRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-14s %-11s %9s %8s %8s %10s %7s\n",
		"tag", "element", "zone", "loss(dB)", "Vp(V)", "Vdd(V)", "charge(s)", "period")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4d %-14s %-11s %9.1f %8.3f %8.2f %10.1f %7d\n",
			r.TID, r.Element, r.Zone, r.PathLossDB, r.HarvestVolts,
			r.AmplifiedV, r.ChargeSeconds, r.Period)
	}
	return b.String()
}
