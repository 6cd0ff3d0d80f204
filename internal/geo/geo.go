// Package geo models the geographic substrate of the measurement study: city
// coordinates, great-circle distances, the registry of bandwidth-test
// servers (carrier-hosted and third-party Speedtest servers) and the list
// of Azure regions that the paper's UE-server distance experiments sweep
// over.
//
// The paper fixes the UE in Minneapolis, MN and measures against servers all
// over the conterminous US; figures 1–8 and 24 are parameterised by the
// UE-server distance, so this package is the ground truth those experiments
// build on.
package geo

import (
	"fmt"
	"math"
	"sort"
)

// EarthRadiusKm is the mean Earth radius used for great-circle distances.
const EarthRadiusKm = 6371.0

// Point is a latitude/longitude pair in degrees.
type Point struct {
	Lat float64
	Lon float64
}

// HaversineKm returns the great-circle distance between two points in km.
func HaversineKm(a, b Point) float64 {
	const degToRad = math.Pi / 180
	la1, lo1 := a.Lat*degToRad, a.Lon*degToRad
	la2, lo2 := b.Lat*degToRad, b.Lon*degToRad
	dla := la2 - la1
	dlo := lo2 - lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * EarthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// City is a named location.
type City struct {
	Name  string
	State string
	Loc   Point
}

func (c City) String() string { return c.Name + ", " + c.State }

// Cities used across the study. Minneapolis is the UE's home city.
var (
	Minneapolis  = City{"Minneapolis", "MN", Point{44.98, -93.27}}
	StPaul       = City{"St. Paul", "MN", Point{44.95, -93.09}}
	Chicago      = City{"Chicago", "IL", Point{41.88, -87.63}}
	Detroit      = City{"Detroit", "MI", Point{42.33, -83.05}}
	KansasCity   = City{"Kansas City", "MO", Point{39.10, -94.58}}
	Denver       = City{"Denver", "CO", Point{39.74, -104.99}}
	Dallas       = City{"Dallas", "TX", Point{32.78, -96.80}}
	Houston      = City{"Houston", "TX", Point{29.76, -95.37}}
	Atlanta      = City{"Atlanta", "GA", Point{33.75, -84.39}}
	Miami        = City{"Miami", "FL", Point{25.76, -80.19}}
	NewYork      = City{"New York", "NY", Point{40.71, -74.01}}
	Boston       = City{"Boston", "MA", Point{42.36, -71.06}}
	WashingtonDC = City{"Washington", "DC", Point{38.91, -77.04}}
	Seattle      = City{"Seattle", "WA", Point{47.61, -122.33}}
	Portland     = City{"Portland", "OR", Point{45.52, -122.68}}
	SanFrancisco = City{"San Francisco", "CA", Point{37.77, -122.42}}
	LosAngeles   = City{"Los Angeles", "CA", Point{34.05, -118.24}}
	Phoenix      = City{"Phoenix", "AZ", Point{33.45, -112.07}}
	SaltLakeCity = City{"Salt Lake City", "UT", Point{40.76, -111.89}}
	LasVegas     = City{"Las Vegas", "NV", Point{36.17, -115.14}}
	StLouis      = City{"St. Louis", "MO", Point{38.63, -90.20}}
	Nashville    = City{"Nashville", "TN", Point{36.16, -86.78}}
	Charlotte    = City{"Charlotte", "NC", Point{35.23, -80.84}}
	Philadelphia = City{"Philadelphia", "PA", Point{39.95, -75.17}}
	Cleveland    = City{"Cleveland", "OH", Point{41.50, -81.69}}
	Indianapolis = City{"Indianapolis", "IN", Point{39.77, -86.16}}
	Milwaukee    = City{"Milwaukee", "WI", Point{43.04, -87.91}}
	Omaha        = City{"Omaha", "NE", Point{41.26, -95.93}}
	DesMoines    = City{"Des Moines", "IA", Point{41.59, -93.62}}
	Fargo        = City{"Fargo", "ND", Point{46.88, -96.79}}
	NewOrleans   = City{"New Orleans", "LA", Point{29.95, -90.07}}
	SanAntonio   = City{"San Antonio", "TX", Point{29.42, -98.49}}
	Memphis      = City{"Memphis", "TN", Point{35.15, -90.05}}
	Pittsburgh   = City{"Pittsburgh", "PA", Point{40.44, -79.99}}
	Tampa        = City{"Tampa", "FL", Point{27.95, -82.46}}
	Baltimore    = City{"Baltimore", "MD", Point{39.29, -76.61}}
	Columbus     = City{"Columbus", "OH", Point{39.96, -83.00}}
	Albuquerque  = City{"Albuquerque", "NM", Point{35.08, -106.65}}
	Boise        = City{"Boise", "ID", Point{43.62, -116.21}}
	Billings     = City{"Billings", "MT", Point{45.78, -108.50}}
	SiouxFalls   = City{"Sioux Falls", "SD", Point{43.55, -96.73}}
)

// HostKind classifies who operates a test server; it determines whether
// Internet-side bottlenecks apply (challenge [C1]/[C2] in §3.1).
type HostKind int

const (
	// HostCarrier is a server hosted inside the measured carrier's own
	// network (Verizon/T-Mobile host ~48/47 such Speedtest servers); traffic
	// to it never leaves the carrier, avoiding Internet-side congestion.
	HostCarrier HostKind = iota
	// HostThirdParty is an ISP-, university-, or company-run Speedtest
	// server; reaching it adds Internet routing overhead, and its NIC/switch
	// port may cap throughput below what mmWave can deliver.
	HostThirdParty
	// HostCloud is a provisioned cloud VM (the paper's Azure DS4_v2 VMs)
	// with known, high network capacity and root control over the kernel.
	HostCloud
)

func (k HostKind) String() string {
	switch k {
	case HostCarrier:
		return "carrier"
	case HostThirdParty:
		return "third-party"
	case HostCloud:
		return "cloud"
	default:
		return fmt.Sprintf("HostKind(%d)", int(k))
	}
}

// Server is a bandwidth-test endpoint.
type Server struct {
	Name string
	City City
	Kind HostKind
	// CapMbps caps the server-side throughput (NIC/switch-port capacity or
	// network configuration). Zero means effectively unbounded (≥ any UE).
	CapMbps float64
	// ExtraRTTMs models additional Internet-side routing latency beyond the
	// geographic propagation to reach this server (peering detours etc.).
	ExtraRTTMs float64
}

// DistanceKm returns the great-circle UE-server distance.
func (s Server) DistanceKm(ue Point) float64 { return HaversineKm(ue, s.City.Loc) }

// Registry is a pool of test servers, mirroring Ookla's server list plus the
// provisioned cloud VMs.
type Registry struct {
	Servers []Server
}

// Nearest returns the server of kind k closest to the UE, mirroring
// Speedtest's default pick of a geographically nearby server. ok is false if
// no server of that kind exists.
func (r *Registry) Nearest(ue Point, k HostKind) (Server, bool) {
	best := -1
	bestD := math.Inf(1)
	for i, s := range r.Servers {
		if s.Kind != k {
			continue
		}
		if d := s.DistanceKm(ue); d < bestD {
			bestD = d
			best = i
		}
	}
	if best < 0 {
		return Server{}, false
	}
	return r.Servers[best], true
}

// SortedByDistance returns all servers ordered by distance from the UE.
func (r *Registry) SortedByDistance(ue Point) []Server {
	out := append([]Server(nil), r.Servers...)
	sort.SliceStable(out, func(i, j int) bool {
		return out[i].DistanceKm(ue) < out[j].DistanceKm(ue)
	})
	return out
}

// CarrierServerCities is the set of metropolitan areas where both studied
// carriers host Speedtest servers (the paper: "mainly located in major
// metropolitan U.S. cities").
var CarrierServerCities = []City{
	Minneapolis, Chicago, Detroit, KansasCity, Denver, Dallas, Houston,
	Atlanta, Miami, NewYork, Boston, WashingtonDC, Seattle, Portland,
	SanFrancisco, LosAngeles, Phoenix, SaltLakeCity, LasVegas, StLouis,
	Nashville, Charlotte, Philadelphia, Cleveland, Indianapolis, Milwaukee,
	Omaha, NewOrleans, SanAntonio, Memphis, Pittsburgh, Tampa, Baltimore,
	Columbus, Albuquerque, Boise, Billings, SiouxFalls, Fargo,
}

// NewCarrierRegistry builds the nationwide pool of carrier-hosted Speedtest
// servers for one carrier. Carrier servers sit at the edge of the carrier's
// city-level ingress points, so they carry no extra Internet-side RTT and no
// artificial port caps.
func NewCarrierRegistry(carrier string) *Registry {
	r := &Registry{}
	for _, c := range CarrierServerCities {
		r.Servers = append(r.Servers, Server{
			Name: fmt.Sprintf("%s, %s", carrier, c.Name),
			City: c,
			Kind: HostCarrier,
		})
	}
	return r
}

// minnesotaThirdParty reproduces the structure of Fig. 24: Speedtest servers
// inside Minnesota hosted by local ISPs and universities. Servers 2..23 reach
// ~2.8 Gbps (10% degradation from Internet-side routing), later entries are
// bound by 2 Gbps or 1 Gbps NIC/switch-port capacity.
type mnServerSpec struct {
	name    string
	city    City
	capMbps float64
	extraMs float64
}

var mnTowns = map[string]Point{
	"Northfield":          {44.46, -93.16},
	"Cambridge":           {45.57, -93.22},
	"Monticello":          {45.31, -93.79},
	"Rochester":           {44.02, -92.47},
	"Rosemount":           {44.74, -93.13},
	"Perham":              {46.59, -95.57},
	"Sebeka":              {46.63, -95.09},
	"St Cloud":            {45.56, -94.16},
	"Brainerd":            {46.36, -94.20},
	"Winona":              {44.05, -91.64},
	"Bemidji":             {47.47, -94.88},
	"Fairmont":            {43.65, -94.46},
	"St. Joseph":          {45.56, -94.32},
	"Moorhead":            {46.87, -96.77},
	"Litchfield":          {45.13, -94.53},
	"International Falls": {48.60, -93.41},
	"Saint Peter":         {44.32, -93.96},
	"Houston":             {43.76, -91.57},
	"Ellendale":           {43.87, -93.30},
	"Albany":              {45.63, -94.57},
	"Duluth":              {46.79, -92.10},
	"Brandon":             {45.96, -95.60},
	"New Ulm":             {44.31, -94.46},
	"Halstad":             {47.35, -96.83},
	"Eden Prairie":        {44.85, -93.47},
	"Mountain Iron":       {47.53, -92.62},
	"Ely":                 {47.90, -91.87},
}

func mnCity(name string) City {
	if p, ok := mnTowns[name]; ok {
		return City{name, "MN", p}
	}
	return City{name, "MN", Minneapolis.Loc}
}

// NewMinnesotaRegistry returns the 37-server in-state pool of Fig. 24 for the
// given carrier: the carrier's own Minneapolis server first, then ISP and
// university servers with realistic capacity limits.
func NewMinnesotaRegistry(carrier string) *Registry {
	specs := []mnServerSpec{
		{carrier, Minneapolis, 0, 0}, // #1: carrier's own server, full rate
		{"Hennepin County", Minneapolis, 2800, 1},
		{"Sprint", StPaul, 2800, 1},
		{"Carleton College", mnCity("Northfield"), 2800, 1.5},
		{"CenturyLink", StPaul, 2800, 1},
		{"Midco", mnCity("Cambridge"), 2800, 1.5},
		{"NetINS", Minneapolis, 2800, 1},
		{"Fibernet Monticello", mnCity("Monticello"), 2800, 1.5},
		{"US Internet", Minneapolis, 2800, 1},
		{"Paul Bunyan Comm.", Minneapolis, 2800, 1},
		{"Metronet", mnCity("Rochester"), 2800, 2},
		{"Gigabit Minnesota", mnCity("Rosemount"), 2800, 1.5},
		{"Arvig", mnCity("Perham"), 2800, 2.5},
		{"West Central Tel.", mnCity("Sebeka"), 2800, 2.5},
		{"Spectrum", mnCity("St Cloud"), 2800, 1.5},
		{"CTC", mnCity("Brainerd"), 2800, 2},
		{"Hiawatha Broadband", mnCity("Winona"), 2800, 2},
		{"CenturyLink", mnCity("Rochester"), 2800, 2},
		{"Midco", mnCity("Bemidji"), 2800, 3},
		{"Midco", mnCity("Fairmont"), 2800, 2.5},
		{"Midco", mnCity("St. Joseph"), 2800, 1.5},
		{"Paul Bunyan Comm.", mnCity("Bemidji"), 2800, 3},
		{"702 Communications", mnCity("Moorhead"), 2800, 3},
		{"fdcservers", Minneapolis, 2300, 1},
		{"Vibrant Broadband", mnCity("Litchfield"), 2000, 2},
		{"Midco", mnCity("International Falls"), 2000, 3.5},
		{"Gustavus Adolphus", mnCity("Saint Peter"), 2000, 2},
		{"AcenTek-Sprint", mnCity("Houston"), 2000, 2.5},
		{"Radio Link", mnCity("Ellendale"), 1000, 2},
		{"Albany Mutual Tel.", mnCity("Albany"), 1000, 2},
		{"Paul Bunyan Comm.", mnCity("Duluth"), 1000, 2.5},
		{"Stellar Assoc.", mnCity("Brandon"), 1000, 2.5},
		{"Nuvera", mnCity("New Ulm"), 1000, 2},
		{"Halstad Telephone", mnCity("Halstad"), 950, 3.5},
		{"vRad", mnCity("Eden Prairie"), 900, 1.5},
		{"Northeast Service", mnCity("Mountain Iron"), 850, 3},
		{"Midco", mnCity("Ely"), 800, 3.5},
	}
	r := &Registry{}
	for i, sp := range specs {
		kind := HostThirdParty
		if i == 0 {
			kind = HostCarrier
		}
		r.Servers = append(r.Servers, Server{
			Name:       fmt.Sprintf("%s, %s", sp.name, sp.city.Name),
			City:       sp.city,
			Kind:       kind,
			CapMbps:    sp.capMbps,
			ExtraRTTMs: sp.extraMs,
		})
	}
	return r
}

// AzureRegion is one of the US Azure regions from Fig. 8, with the UE-server
// distance the paper reports (UE in Minneapolis).
type AzureRegion struct {
	Name       string
	City       City
	DistanceKm float64 // as reported in Fig. 8
}

// AzureCapMbps and AzureExtraRTTMs describe the path to an Azure region's
// VM, one of the paper's Standard DS4_v2 instances: a NIC cap far above
// what mmWave delivers, and a small extra RTT for the datacenter edge.
// Fig. 8 and the BBR extension use them for every region.
const (
	AzureCapMbps    = 10000
	AzureExtraRTTMs = 1
)

// AzureRegions lists the eight conterminous-US Azure regions used for the
// controlled single-connection experiments, ordered by distance.
var AzureRegions = []AzureRegion{
	{"Central", DesMoines, 374},
	{"North Central", Chicago, 563},
	{"East", WashingtonDC, 1393},
	{"West Central", City{"Cheyenne", "WY", Point{41.14, -104.82}}, 1444},
	{"East2", City{"Richmond", "VA", Point{37.54, -77.44}}, 1539},
	{"South Central", SanAntonio, 1779},
	{"West2", City{"Quincy", "WA", Point{47.23, -119.85}}, 2044},
	{"West", SanFrancisco, 2532},
}
