"""Independent oracles used by the tests.

Everything here deliberately takes a different route than the library:
Gauss-Hermite and adaptive SciPy quadrature instead of one Gauss-Legendre
rule around the integrand's mode, that rule's nodes from an eigenproblem
instead of Newton steps, determinants instead of closed forms, linear
programming instead of least squares, least squares on cone generators instead
of half-space tests, one product over every outer normal instead of a lead
block of normals and its survivors, modified Gram-Schmidt one basis vector at
a time instead of blocked classical Gram-Schmidt, raw subset enumeration
instead of qhull bookkeeping, index tables subset by subset through
dictionaries of positions instead of array operations on one subset list,
each side test of a point against d others as a sum of d minors instead of
one minor of the lifted map [X | 1] per d + 1 points, every side test exact
on ints (memoized cofactor expansions for the rows' hull, row echelon forms
reduced by cross-multiplication and gcds for the symmetric one) and
determinants as sums over permutations instead of a float filter with a
fraction-free (Bareiss) integer elimination behind it,
a zonotope's faces counted as covectors at rays found by SVD instead of
taken from the closed form of a generic arrangement,
facets grouped by rounded hyperplane equations instead of by qhull's
neighbour graph, one freshly derived generator and one f-vector call per
replication instead of batched stream keys and block-wise face counting,
each angle chunk's rows drawn by one call instead of a sub-block at a time,
and each sampled row's Phi taken from math.erfc instead of a Taylor table,
with NumPy's mean and standard deviation instead of shifted block sums,
the projected models' vertices multiplied by Haar frames (the Q of a
Gaussian matrix G = QR) instead of counted on G, whose image differs by R^-1,
Poisson tail bounds written out per model name instead of read off the
model table, every face of a simplicial hull counted as a distinct subset of
its facets instead of read off the h-vector, exact angles as a ladder of
branches instead of one power of 1/2 per kind, one exactly rounded math.fsum
per quadrature window instead of NumPy's row sums, each size's projection
sum on its own, one angle call per term, instead of one batch of angles for
a range of sizes, a cube's sum as exact products of its face counts and
angles instead of the collapsed binomial sum,
a linear scan for a Poisson sum's stopping size from max(k + 2, int(t) + 1)
instead of a scan that starts past 2t, colex subset lists built by
recursion on the largest element instead of sorted by reversed tuple,
ball volumes by their closed forms with pi from Machin's formula instead
of a product of 2 pi / j with a 50-digit pi, and the size functional's
Gamma ratios as rising products instead of log-Gamma differences.
Agreement between routes is the point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache
from itertools import combinations, permutations, product

import numpy as np
from scipy.integrate import quad
from scipy.optimize import linprog, nnls
from scipy.spatial import ConvexHull
from scipy.stats import norm


def cayley_menger_volume(points: np.ndarray) -> float:
    """Volume of the simplex spanned by k+1 points via the Cayley-Menger determinant."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0] - 1
    if k == 0:
        return 1.0
    d2 = ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=2)
    m = np.ones((k + 2, k + 2))
    m[0, 0] = 0.0
    m[1:, 1:] = d2
    det = np.linalg.det(m)
    coef = (-1) ** (k + 1) / (2**k * math.factorial(k) ** 2)
    return math.sqrt(max(coef * det, 0.0))


def simplex_external_quadrature(n: int, g: int) -> float:
    """External angle of the regular n-simplex at a g-face: E[Phi(M)^(n-g)], M ~ N(0, 1/(g+1)).

    Computed by Gauss-Hermite quadrature; derived by conditioning the normal
    cone's Gaussian on the shared coordinate height.
    """
    nodes, weights = np.polynomial.hermite_e.hermegauss(240)
    sigma = 1.0 / math.sqrt(g + 1)
    vals = norm.cdf(nodes * sigma) ** (n - g)
    return float((weights * vals).sum() / math.sqrt(2 * math.pi))


def cross_external_quadrature(n: int, g: int) -> float:
    """External angle of the n-crosspolytope at a proper g-face.

    The normal cone at the canonical face is {u: u_1 = ... = u_{g+1} = c >= 0,
    |u_j| <= c}; integrating out the free coordinates gives
    int_0^inf phi(z) (2 Phi(z/sqrt(g+1)) - 1)^(n-g-1) dz.
    """
    s = math.sqrt(g + 1)

    def f(z: float) -> float:
        return norm.pdf(z) * (2 * norm.cdf(z / s) - 1) ** (n - g - 1)

    val, _ = quad(f, 0, np.inf)
    return float(val)


def fsum_rule_sums(family, windows: list) -> list[float]:
    """The quadrature rule over each (m, s, a, b, peak) window, one window at a time.

    The node values of polyproj.angles._rule_sums, but each window's weighted
    values are summed by one exactly rounded math.fsum.
    """
    from polyproj.angles import _LOG_SQRT_2PI, _legendre_rule, _log_f_nodes

    nodes, weights = _legendre_rule()
    sums = []
    for m, s, a, b, peak in windows:
        half = 0.5 * (b - a)
        x = 0.5 * (a + b) + half * nodes
        h = -0.5 * x * x + m * _log_f_nodes(family, x / s)
        sums.append(math.exp(peak - _LOG_SQRT_2PI) * half * math.fsum((weights * np.exp(h - peak)).tolist()))
    return sums


def golub_welsch_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule from the eigenvectors of the Legendre Jacobi matrix."""
    k = np.arange(1, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    nodes, vecs = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return nodes, 2.0 * vecs[0] ** 2


# closed-form internal angles of small regular simplex face pairs
TETRA_VERTEX_ANGLE = (3 * math.acos(1 / 3) - math.pi) / (4 * math.pi)
TETRA_EDGE_ANGLE = math.acos(1 / 3) / (2 * math.pi)
TRIANGLE_VERTEX_ANGLE = 1 / 6
# beta(Q_0, Q_5), the orthant probability of five Gaussians with pairwise
# correlations -1/5: int phi(x) Re Phi(i x / sqrt 6)^5 dx, Steck's
# equicorrelated formula continued to negative correlation, by mpmath's quad
# at 30 and at 45 digits, which agree to 3e-33; the same integral gives the
# three closed forms above to 30 digits
SIMPLEX_5_VERTEX_ANGLE = 0.001922043736984349261570562
# beta(Q_k, Q_g) of the regular g-simplex at (k, g), by the same integral on
# the shifted line y = x + i c of polyproj.angles._steck_window: mpmath's
# quad at 40 digits (50 at (3, 10) and (64, 128)), with breakpoints every
# half width (quarter width at 50 digits) over +-40 widths, once at height c
# and once at c + 1/2; the two heights agree to 1e-28 relative or better
STECK_ANGLES = {
    (0, 6): 0.000340695139691114750090425814516,
    (2, 9): 0.000546266115167069861489522059419,
    (3, 10): 0.000872969400995471306493886571335,
    (0, 12): 2.43075571571247485157452560170e-9,
    (0, 64): 7.87117585381257353088731251680e-70,
    (0, 128): 2.13241755952873676433183487832e-158,
    (1, 128): 2.13280583872022415842043007166e-138,
    (64, 128): 1.68424644180787290084168769707e-26,
}

# log Phi(t) and log(2 Phi(t) - 1) = log erf(t / sqrt 2) to 30 digits at
# the float t of test_log_f_nodes_follow_the_scalar_branches: every branch of
# polyproj.angles._log_f_nodes (t < 0 down to -36, t = -1e-300 and 0, both
# sides of t = sqrt(2) / 2, of the erf branch's edge t = 90.5 / 128 and of
# the tail table's edge t = 20, and t = 30 past it).  By mpmath at 50
# digits: log1p(-ncdf(-t)) for t > 0 and log(ncdf(t)) otherwise,
# log1p(-erfc(y)) for y = t / sqrt 2 > 0.5 and log(erf(y)) otherwise, each
# printed by mpmath.nstr(value, 30)
LOG_NORMAL_CDF = {
    -36.0: -652.503227593798396854348782066,
    -35.75: -643.527519712059721709393030204,
    -35.5: -634.614263155088385004489796079,
    -35.25: -625.763457238135175589573745953,
    -35.0: -616.975101261922513473244205684,
    -34.75: -608.249194512231194045371843602,
    -34.5: -599.585736259472357693692970994,
    -34.25: -590.984725758244047453785864792,
    -34.0: -582.446162246871685076760869003,
    -33.75: -573.970044946931761768058820617,
    -33.5: -565.556373062758003720525737549,
    -33.25: -557.205145780929234302929002675,
    -33.0: -548.916362269738114229005305202,
    -32.75: -540.690021678639898069074306396,
    -32.5: -532.526123137680299911816865391,
    -32.25: -524.424665756901512661161882002,
    -32.0: -516.385648625725374172025387736,
    -31.75: -508.409070812312618983950653494,
    -31.5: -500.494931362897096582694310851,
    -31.25: -492.643229301093775668451854801,
    -31.0: -484.85396362717928857896650793,
    -30.75: -477.127133317343700529130195729,
    -30.5: -469.462737322912114386655540797,
    -30.25: -461.860774569534642982689951937,
    -30.0: -454.321243956343197107355771338,
    -29.75: -446.84414435507344798506215709,
    -29.5: -439.429474609150227753818066571,
    -29.25: -432.077233532734529843458663403,
    -29.0: -424.787419909730162679335964859,
    -28.75: -417.560032492747994309713362999,
    -28.5: -410.395070002025601801585691418,
    -28.25: -403.292531124300006957133644171,
    -28.0: -396.252414511631038404583103965,
    -27.75: -389.27471878017270868771123866,
    -27.5: -382.359442508889832828594641463,
    -27.25: -375.50658423821694110931576939,
    -27.0: -368.716142468656352574140103019,
    -26.75: -361.988115659312075973443276379,
    -26.5: -355.322502226355990440622781959,
    -26.25: -348.719300541422527897117860382,
    -26.0: -342.178508929927831689320015764,
    -25.75: -335.700125669309099820909544964,
    -25.5: -329.284148987179534763901018367,
    -25.25: -322.930577059394013468517635346,
    -25.0: -316.639408008020258935195763525,
    -24.75: -310.410639899209936465068308487,
    -24.5: -304.244270740963711165989063594,
    -24.25: -298.140298480783885929269177782,
    -24.0: -292.098721003207788124444378518,
    -23.75: -286.119536127214585621106409663,
    -23.5: -280.20274160349768506109291734,
    -23.25: -274.348335111594293846269345194,
    -23.0: -268.556314256863107964368434694,
    -22.75: -262.826676567300416003332644406,
    -22.5: -257.159419490184180476340613041,
    -22.25: -251.554540388534865329039679254,
    -22.0: -246.012036537380917058108504113,
    -21.75: -240.531905119815869391215689957,
    -21.5: -235.114143222833020360300248841,
    -21.25: -229.758747832922517390123776592,
    -21.0: -224.465715831414471313820858284,
    -20.75: -219.235043989550393532983813309,
    -20.5: -214.066728963263800166530353549,
    -20.25: -208.960767287649239918658850999,
    -20.01: -204.117702778659932606013564719,
    -20.0: -203.917155371097263936804458655,
    -19.99: -203.716707717208404040601504947,
    -19.75: -198.935889489070949775722657332,
    -19.5: -194.016965777497499407602969434,
    -19.25: -189.160380225746132453821708706,
    -19.0: -184.366128669160967350982645572,
    -18.75: -179.634206781114798999231559887,
    -18.5: -174.964610064546612278093202163,
    -18.25: -170.357333842942283602654700278,
    -18.0: -165.812373250714180090914156465,
    -17.75: -161.329723222931225677235378281,
    -17.5: -156.909378484346417775103300991,
    -17.25: -152.551333537663692557852150788,
    -17.0: -148.255582650980389875990126776,
    -16.75: -144.022119844335290027365114716,
    -16.5: -139.850938875285203977294464355,
    -16.25: -135.742033223425304775541318402,
    -16.0: -131.69539607375968629013187142,
    -15.75: -127.711020298818906209840041221,
    -15.5: -123.788898439410376121714200379,
    -15.25: -119.92902268387524435409061444,
    -15.0: -116.131384845711695235908562754,
    -14.75: -112.395976339409151525855191901,
    -14.5: -108.722788154320472334521353867,
    -14.25: -105.111810826379605833557194475,
    -14.2: -104.39707979709809146497708018,
    -14.0: -101.563034407449958244118343843,
    -13.75: -98.0764484320635987352317321791,
    -13.5: -94.6520418812828919767110783502,
    -13.25: -91.2898031433837200900293858565,
    -13.0: -87.989719971022519666177752402,
    -12.75: -84.7517794345072090175665036491,
    -12.5: -81.5759678707438832173856602051,
    -12.25: -78.4622708273759286433104280538,
    -12.0: -75.4106730015687959388396832681,
    -11.75: -72.4211581728206986696295751052,
    -11.5: -69.4937091290953462628399491018,
    -11.25: -66.6283075854755366855977709681,
    -11.0: -63.824934094423715501980637572,
    -10.75: -61.0835679466046889084367512831,
    -10.5: -58.4041870610732434157484667369,
    -10.25: -55.7867678634514863991057018911,
    -10.0: -53.2312851505124705783470273541,
    -9.75: -50.7377119393422850361984045028,
    -9.5: -48.3060192989652302819631419754,
    -9.25: -45.9361761619773620584462102224,
    -9.0: -43.6281491133321154967890520134,
    -8.75: -41.3819021529450915246635818624,
    -8.5: -39.197396428217669288507983651,
    -8.25: -37.0745899319015329186353734931,
    -8.0: -35.0134371599145498955041281525,
    -7.75: -33.0138887227430871781593682206,
    -7.5: -31.0758909028900012425820878518,
    -7.25: -29.1993851494053486070499432485,
    -7.0: -27.3843074988110752426301238858,
    -6.75: -25.6305879096298529069796194325,
    -6.5: -23.9381494951618385542858691259,
    -6.25: -22.306907636008250681671823097,
    -6.0: -20.7367689499747056549688537181,
    -5.75: -19.2276300922204557647215075968,
    -5.5: -17.7793763526252605105944255987,
    -5.25: -16.3918800100377931893773793147,
    -5.0: -15.0649983939887257360837047919,
    -4.75: -13.7985715931474665936743239918,
    -4.5: -12.5924197357130786656070029867,
    -4.25: -11.4463397493658470576612508674,
    -4.0: -10.3601014865272908278607203442,
    -3.75: -9.33344307348920159271550812753,
    -3.5: -8.36606530834409293497210262585,
    -3.25: -7.45762489137411203569307341758,
    -3.0: -6.60772622151034954327607708325,
    -2.75: -5.81591143294522184296708082794,
    -2.5: -5.08164827727869049838046229731,
    -2.25: -4.40431538115327156123749079239,
    -2.0: -3.78318433368203194883554748015,
    -1.75: -3.21739799580027384021444094608,
    -1.5: -2.7059444008238898069570566212,
    -1.25: -2.2476256772143181847047407619,
    -1.0: -1.84102164500926350577078307323,
    -0.75: -1.48444822991965629199220010126,
    -0.5: -1.17591176159361860887972909327,
    -0.25: -0.913061764811135055166213958761,
    -1e-300: -0.693147180559945309417232121458,
    0.0: -0.693147180559945309417232121458,
    0.25: -0.512984075409430432128150932341,
    0.5: -0.368946415288656393065615639043,
    0.7071067811865476: -0.274108032784385709299865345998,
    0.75: -0.256994266838365236690637136775,
    1.0: -0.172753779023449889526483173521,
    1.25: -0.111657828472925170657032694903,
    1.5: -0.0691434556122339829930151391175,
    1.75: -0.0408836181520949309025776297335,
    2.0: -0.0230129093289634884653361749085,
    2.25: -0.0122998060914494089062765757427,
    2.5: -0.00622902548586000238098609075516,
    2.75: -0.00298421156837419199925316472837,
    3.0: -0.00135080996474819379884111049052,
    3.25: -0.000577191585409950150254548420264,
    3.5: -0.00023265614137680455218134100151,
    3.75: -0.0000884211942393844251443036605201,
    4.0: -0.0000316717433774892638602732867991,
    4.25: -0.000010688582897633079841785714645,
    4.5: -0.00000339767889683446614453067036573,
    4.75: -0.00000101708375979821503863537631379,
    5.0: -0.000000286651612963763593384596258496,
    5.25: -0.0000000760496080566585119911234016549,
    5.5: -0.0000000189895626461894629893446003862,
    5.75: -0.00000000446217246385710340686380225907,
    6.0: -9.86587645524375731691479730372e-10,
    6.25: -2.0522634254295281399761444618e-10,
    6.5: -4.01600058393975911179608833485e-11,
    6.75: -7.39225777804514515704469688196e-12,
    7.0: -1.2798125438866539644573681557e-12,
    7.25: -2.08385815867228655443127087827e-13,
    7.5: -3.1908916729109471367156296063e-14,
    7.75: -4.59462743577860601545609168687e-15,
    8.0: -6.22096057427178605853351850479e-16,
    8.25: -7.91972631464247765457169891609e-17,
    8.5: -9.47953482220331839908184069053e-18,
    8.75: -1.06676373754748580085525092977e-18,
    9.0: -1.12858840595384064779918766547e-19,
    9.25: -1.12246335913279826595844759203e-20,
    9.5: -1.04945150753626074928402869139e-21,
    9.75: -9.22341352493941814852065156874e-23,
    10.0: -7.61985302416052606597337228268e-24,
    10.25: -5.91717690736561785032027329108e-25,
    10.5: -4.31900631780923034654781725056e-26,
    10.75: -2.96308087809435858530311471626e-27,
    11.0: -1.91065957449867571115041563389e-28,
    11.25: -1.15796031856864176537168105211e-29,
    11.5: -6.59577144611367507905247210593e-31,
    11.75: -3.53094239588599325861883023945e-32,
    12.0: -1.77648211207767899769617100185e-33,
    19.99: -3.36479001764704663855714841343e-89,
    20.01: -2.25324296841931784570604941419e-89,
    30.0: -4.90671392714818705953380925658e-198,
}
LOG_TWO_SIDED = {
    1e-300: -691.001319250858432612701442185,
    1e-06: -14.0413019106091682483896011727,
    0.125: -2.30783434966424038115962323515,
    0.25: -1.62245906403720490157713699628,
    0.375: -1.2298393667956187872882770801,
    0.5: -0.959916333695622319332828692402,
    0.625: -0.759225143304387746512291325651,
    0.7070312499999999: -0.653055804236193068589300296396,
    0.70703125: -0.653055804236192936027498999146,
    0.7071067811865475: -0.652965625676331235486432277017,
    0.7071067811865476: -0.652965625676331102943663409662,
    0.7071067811865477: -0.652965625676330970400894542307,
    0.75: -0.603772224407388022423637481621,
    0.875: -0.480577586132516839017874856754,
    1.0: -0.381715146302126072274183007511,
    1.125: -0.301901402015622436654732925333,
    1.25: -0.237368684638595557398078382493,
    1.375: -0.185283673175427467421862930752,
    1.5: -0.143425206861177099609921187085,
    1.625: -0.10999630973323896989366154083,
    1.75: -0.0835102190868448200736043362321,
    1.875: -0.0627190824197082611914275111713,
    2.0: -0.0465679122923901635476538765889,
    2.125: -0.0341635993487921778397381805527,
    2.25: -0.02475278334343659700268748989,
    2.375: -0.0177047585577206005967472831357,
    2.5: -0.0124970950639048899928800467063,
    2.625: -0.0087026552175086545600187721144,
    2.75: -0.00597735531759927503727764750073,
    2.875: -0.00404845894192449604960457964356,
    3.0: -0.00270344708547596315419565380687,
    3.125: -0.00177963320643165743556612624898,
    3.25: -0.00115471651335793613599587700389,
    3.375: -0.000738429480503122452618233859177,
    3.5: -0.000465366424230320783167796172625,
    3.625: -0.00028900320916715445998815293277,
    3.75: -0.000176850207477729889858406049588,
    3.875: -0.000106630384319562876574569104777,
    4.0: -0.0000633444898860780918709641911554,
    4.125: -0.0000370741629306895374807614041906,
    4.25: -0.0000213772800422916591484943781366,
    4.375: -0.0000121433215524919194426286809394,
    4.5: -0.00000679536933793004198679397202737,
    4.625: -0.00000374599102732904649082129038782,
    4.75: -0.00000203416855405685665553314061826,
    4.875: -0.00000108808514311425727267082321894,
    5.0: -0.000000573303308096697955422412084144,
    5.125: -0.000000297537790639896609339535916284,
    5.25: -0.000000152099221896860349389831923495,
    5.375: -0.0000000765826850549423186258697833242,
    5.5: -0.0000000379791256529824223199460557425,
    5.625: -0.0000000185507976411876882894783621141,
    5.75: -0.00000000892434494762518999977841826214,
    5.875: -0.00000000422843349382151909597230365077,
    6.0: -0.00000000197317529202210664664459092106,
    6.125: -9.0683606575023272273258207167e-10,
    6.25: -4.10452685128023479677429989101e-10,
    6.375: -1.8296295168890992428005436866e-10,
    6.5: -8.03200116804080083050069864186e-11,
    6.625: -3.47248179076440439922994033198e-11,
    6.75: -1.47845155561449357891468666639e-11,
    6.875: -6.19898590353364457431205818779e-12,
    7.0: -2.55962508777494584906222803621e-12,
    7.125: -1.04080688006389793807139601649e-12,
    7.25: -4.1677163173450073553450883523e-13,
    7.375: -1.64345052151700249673409755193e-13,
    7.5: -6.38178334582199609132794174008e-14,
    7.625: -2.44034386357987672821054936851e-14,
    7.75: -9.18925487155723314151345698332e-15,
    7.875: -3.40742858326575222037281399735e-15,
    8.0: -1.2441921148543575987102083674e-15,
    8.125: -4.47362412888821109402566554353e-16,
    8.25: -1.58394526292849559363640468206e-16,
    8.375: -5.52238718145052339085194056642e-17,
    8.5: -1.89590696444066368880252618264e-17,
    8.625: -6.40926545404151933549844309622e-18,
    8.75: -2.13352747509497160284848673129e-18,
    8.875: -6.99334139642780156386422097533e-19,
    9.0: -2.25717681190768129572574650995e-19,
    9.125: -7.17362587329945677698495435604e-20,
    9.25: -2.24492671826559653192949442398e-20,
    9.375: -6.917576974467160079400762246e-21,
    9.5: -2.09890301507252149856915873125e-21,
    9.625: -6.2706924637749527913908230968e-22,
    9.75: -1.8446827049878836297042153851e-22,
    9.875: -5.34329605750644963348059176874e-23,
    10.0: -1.52397060483210521319468026275e-23,
    10.125: -4.27978734743925797441465235892e-24,
    10.25: -1.18343538147312357006405500835e-24,
    10.375: -3.2221238368715126331563663904e-25,
    10.5: -8.63801263561846069309563468766e-26,
    10.625: -2.2801216925607823375555611298e-26,
    10.75: -5.9261617561887171706062294413e-27,
    10.875: -1.51655792245265032410324813983e-27,
    11.0: -3.82131914899735142230083126815e-28,
    11.125: -9.48058743894319588355028368693e-29,
    11.25: -2.31592063713728353074336210423e-29,
    11.375: -5.57028580158741309261144546524e-30,
    11.5: -1.31915428922273501581049442119e-30,
    11.625: -3.07593376596905211097280640388e-31,
    11.75: -7.0618847917719865172376604789e-32,
    11.875: -1.5963406118575497486301318617e-32,
    12.0: -3.55296422415535799539234200369e-33,
    19.99: -6.72958003529409327711429682686e-89,
    20.01: -4.50648593683863569141209882837e-89,
    30.0: -9.81342785429637411906761851316e-198,
}

# the pinned composite value: expected vertex count of the planar shadow of a
# regular 3-simplex, 12 * (pi - arccos(1/3)) / (2 pi)
SHADOW_TETRA_VERTICES = 6 * (math.pi - math.acos(1 / 3)) / math.pi


def exact_angle_ladder(kind: str, family: str, n: int, k: int, g: int) -> Fraction | None:
    """The rational value of an angle, branch by branch; None where it is not rational.

    None means an internal angle of codimension >= 2 (the Steck integral, or
    sampled at beta(0, 2)), or a quadrature external angle.

    kind is "ext" for gamma(Q_g, P_n), with k ignored, or "int" for
    beta(Q_k, Q_g).  family is the family's name.
    """
    if kind == "ext":
        if family == "cube":
            return Fraction(1, 2 ** (n - g))
        if g == n:
            return Fraction(1)
        if g == n - 1:
            return Fraction(1, 2)
        if g == 0:
            # all vertices are alike and their angles sum to 1
            return Fraction(1, n + 1) if family == "simplex" else Fraction(1, 2 * n)
        return None
    if k > g:
        return Fraction(0)
    if k == g:
        return Fraction(1)
    if family == "cube":
        return Fraction(1, 2 ** (g - k))
    if g == k + 1:
        return Fraction(1, 2)
    return None


def mcmullen_internal_angle(k: int, g: int) -> float:
    """beta(Q_k, Q_g) of the regular g-simplex by McMullen's angle-sum relation.

    Over the faces F between Q_k and Q_g, sum beta(Q_k, F) gamma(F, Q_g) = 1
    (McMullen 1975); Q_k lies in C(g - k, j - k) faces of dimension j, so
    beta(k, g) = 1 - sum_{j=k}^{g-1} C(g - k, j - k) beta(k, j) gamma(j, g),
    with gamma from polyproj's external angles of the g-simplex.  The sum
    cancels, so it keeps about 1e-15 absolute: 1.7e-13 relative at
    beta(0, 5), and worse past g = 5.
    """
    from polyproj import external_angle

    betas = [1.0]  # beta(k, j) for j = k, k + 1, ...
    for top in range(k + 1, g + 1):
        betas.append(1.0 - math.fsum(
            math.comb(top - k, j - k) * betas[j - k] * external_angle("simplex", top, j).value
            for j in range(k, top)))
    return betas[-1]


def size_functional_multiplier(d: int, k: int, half_b: int, model: str = "gaussian") -> Fraction:
    """t_functional_expected's multiplier of the model at b = 2 half_b as a rational.

    Each ratio Gamma(x + half_b) / Gamma(x) is the rising product
    x (x+1) ... (x + half_b - 1), instead of a difference of log-Gammas, and
    2^(bk/2) is 2^(half_b k).  The hulls' k-faces are simplices, with the
    factor (k+1)^half_b / (k!)^b; the zonotope's are parallelotopes, without.
    """
    multiplier = Fraction(2 ** (half_b * k))
    if model != "zonotope":
        multiplier *= Fraction((k + 1) ** half_b, math.factorial(k) ** (2 * half_b))
    for j in range(1, k + 1):
        x = Fraction(d + 1 - j, 2)
        for i in range(half_b):
            multiplier *= x + i
    return multiplier


def sampled_facet_size_ratio(n: int, d: int, b: float, draws: int, rng) -> tuple[float, float]:
    """E sum_F vol(F)^b / E f_{d-1} over the facets F of the hull of n standard Gaussian points in R^d, sampled, with its delta-method standard error.

    Each draw's facets are qhull's simplices (the hull is simplicial almost
    surely), and a facet's (d-1)-volume is sqrt(det(V V^T)) / (d-1)!, V the
    edges from its first vertex.
    """
    sums, counts = np.empty(draws), np.empty(draws)
    for i in range(draws):
        points = rng.standard_normal((n, d))
        simplices = ConvexHull(points).simplices
        edges = points[simplices[:, 1:]] - points[simplices[:, :1]]
        volumes = np.sqrt(np.linalg.det(edges @ edges.transpose(0, 2, 1))) / math.factorial(d - 1)
        counts[i], sums[i] = len(simplices), (volumes**b).sum()
    ratio = sums.mean() / counts.mean()
    # the ratio's first-order error, (S - ratio F) / mean F, averaged over the draws
    residual = (sums - ratio * counts) / counts.mean()
    return float(ratio), float(residual.std(ddof=1) / math.sqrt(draws))


def poisson_face_bound(model: str, ell: int, k: int) -> float:
    """The Poisson tail's bound on f_k of a hull model with parameter ell, by model name.

    ell Gaussian points have at most C(ell, k+1) k-faces, and ell symmetric
    pairs at most C(2 ell, k+1).
    """
    if model == "gaussian":
        return float(math.comb(ell, k + 1))
    if model == "symmetric":
        return float(math.comb(2 * ell, k + 1))
    raise ValueError(f"model {model!r} has no hull face bound")


def poisson_growth_ratio(model: str, ell: int, k: int) -> float:
    """The largest ratio of consecutive face bounds from ell on, as a closed form per model name."""
    if model == "gaussian":
        if ell <= k:
            return float(k + 2)
        return (ell + 1) / (ell - k)
    if model == "symmetric":
        if 2 * ell <= k:
            return float(k + 2)
        return ((2 * ell + 2) * (2 * ell + 1)) / ((2 * ell + 1 - k) * (2 * ell - k))
    raise ValueError(f"model {model!r} has no hull growth ratio")


def model_value_by_terms(row, n: int, d: int, k: int, cfg):
    """E f_k of a target row with parameter n, from this size alone, as an Estimate.

    Every branch of the projection formula written out, one size at a time.
    A simplex or crosspolytope sum takes each j-term's face counts and angles
    anew, one public angle call each, and each term's float steps as
    polyproj.expected takes them; a cube sum is cube_projection_sum.
    """
    from polyproj import Estimate, Family, external_angle, face_count, internal_angle

    m = n - row.shift
    if m < 0 or (m == 0 and row.family is Family.CROSSPOLYTOPE):  # no vertex: the empty hull
        return Estimate.rational(0)
    if m == 0:  # the one vertex of a simplex's or cube's P_0
        return Estimate.rational(1 if k == 0 else 0)
    if k > min(m, d):
        return Estimate.rational(0)
    if k == min(m, d):
        return Estimate.rational(1)
    if d >= m:
        return Estimate.rational(face_count(row.family, m, k))
    if d == 1:
        return Estimate.rational(2)
    if row.family is Family.CUBE:
        return Estimate.rational(cube_projection_sum(m, d, k, exact_angle_ladder))
    values, errors, exact = [], [], True
    for j in range(d, 0, -2):
        beta = internal_angle(row.family, m, k, j - 1, cfg)
        gamma = external_angle(row.family, m, j - 1)
        count = float(face_count(row.family, m, j - 1) * face_count(row.family, j - 1, k, on_polytope=False))
        values.append(count * beta.value * gamma.value)
        errors.append(count * math.hypot(beta.value * gamma.std_error, gamma.value * beta.std_error))
        exact = exact and beta.exact and gamma.exact
    if exact:
        return Estimate(2.0 * sum(values), 0.0, True)
    return Estimate(2.0 * sum(values), 2.0 * math.hypot(*errors))


def cube_projection_sum(n: int, d: int, k: int, angle) -> Fraction:
    """2 sum_j c(n, j - 1) c(j - 1, k) beta(Q_k, Q_{j-1}) gamma(Q_{j-1}, P_n) of a cube, j = d, d - 2, ..., >= 1.

    Each term an exact Fraction product of the face counts and the angles that
    angle(kind, "cube", n, k, g) gives, as exact_angle_ladder's signature has it.
    """
    from polyproj import Family, face_count

    total = Fraction(0)
    for j in range(d, 0, -2):
        faces = face_count(Family.CUBE, n, j - 1) * face_count(Family.CUBE, j - 1, k, on_polytope=False)
        total += faces * angle("int", "cube", n, k, j - 1) * angle("ext", "cube", n, k, j - 1)
    return 2 * total


def poisson_sum_per_t(t: float, d: int, k: int, model: str, eps: float, cfg) -> tuple:
    """One Poisson sum with every term, growth ratio and face bound rebuilt at each size.

    The truncated sum as polyproj.expected takes it, in the same order and with
    the same stopping rule, but sharing nothing between sizes or calls.
    Returns (value, std_error, exact, exact_value, truncation_bound, terms).
    """
    from polyproj.expected import MODEL_TABLE, _face_bound, _growth_ratio

    row = MODEL_TABLE[model]
    value = se = 0.0
    exact = True
    ell = 0
    while True:
        weight = math.exp(-t + ell * math.log(t) - math.lgamma(ell + 1))
        term = model_value_by_terms(row, ell, d, k, cfg)
        value += weight * term.value
        se += weight * term.std_error
        exact = exact and term.exact
        if ell >= max(k + 2, int(t) + 1):
            q = t * _growth_ratio(row, ell, d, lambda size: _face_bound(row, size, d, k)) / (ell + 1)
            if q < 0.5:
                log_tail = _log_tail_bound(t, ell, _face_bound(row, ell, d, k), q)
                if log_tail < math.log(eps):
                    return value, se, exact, None, math.exp(log_tail), ell + 1
        ell += 1


def poisson_stop_by_scan(t: float, d: int, k: int, model: str, eps: float) -> tuple[int, float] | None:
    """The term count and tail bound of the Poisson(t) sum, every size tested in turn.

    polyproj.expected._poisson_stop's rule, scanning ell = max(k + 2, int(t) + 1),
    ... up to the cap one at a time; None when no ell up to the cap stops the sum.
    """
    from polyproj.expected import MAX_POISSON_SIZE, MODEL_TABLE, _face_bound, _growth_ratio

    row = MODEL_TABLE[model]
    for ell in range(max(k + 2, int(t) + 1), min(int(10 * t + 400), MAX_POISSON_SIZE) + 1):
        q = t * _growth_ratio(row, ell, d, lambda size: _face_bound(row, size, d, k)) / (ell + 1)
        if q < 0.5:
            log_tail = _log_tail_bound(t, ell, _face_bound(row, ell, d, k), q)
            if log_tail < math.log(eps):
                return ell + 1, math.exp(log_tail)
    return None


def _log_tail_bound(t: float, ell: int, bound, q: float) -> float:
    """log(weight(ell) * bound * q / (1 - q)), summed in log space as polyproj.expected sums it; -inf for a zero bound.

    A hull's face bound is an exact int that may be past the float range;
    math.log takes it as it is.
    """
    if bound == 0:
        return -math.inf
    return -t + ell * math.log(t) - math.lgamma(ell + 1) + math.log(bound) + math.log(q / (1.0 - q))


def mgs_orthonormal_basis(vecs: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of span(rows) by modified Gram-Schmidt, applied twice.

    Same contract as the library's basis: rows in order, a row is dropped when
    its residual is below drop_tol * (1 + |row|).
    """
    basis: list[np.ndarray] = []
    for v in np.asarray(vecs, dtype=float):
        w = v.copy()
        for _ in range(2):
            for b in basis:
                w -= (w @ b) * b
        nw = np.linalg.norm(w)
        if nw > drop_tol * (1.0 + np.linalg.norm(v)):
            basis.append(w / nw)
    return np.array(basis).reshape(len(basis), np.shape(vecs)[1])


def full_pass_orthonormal_basis(vecs: np.ndarray, drop_tol: float = 1e-10) -> np.ndarray:
    """The library's Gram-Schmidt basis without its early exit: every row is projected.

    Same arithmetic as polyproj.angles.orthonormal_basis, so a row the library
    skips once its basis is full must be dropped here and the bases agree bit
    for bit.
    """
    vecs = np.asarray(vecs, dtype=float)
    basis = np.empty_like(vecs)
    r = 0
    for v in vecs:
        w = v.copy()
        for _ in range(2):
            w -= (basis[:r] @ w) @ basis[:r]
        nw = np.linalg.norm(w)
        if nw > drop_tol * (1.0 + np.linalg.norm(v)):
            basis[r] = w / nw
            r += 1
    return basis[:r]


def nnls_member_count(generators: np.ndarray, u: np.ndarray, tol: float = 1e-8) -> int:
    """Rows of u in pos(generators): those that NNLS on the generators reproduces.

    The residual is recomputed from the returned coefficients rather than
    taken from the solver, and compared against tol * (1 + |u|).
    """
    a = np.asarray(generators, dtype=float).T
    hits = 0
    for row in np.asarray(u, dtype=float):
        x, _ = nnls(a, row)
        if np.linalg.norm(a @ x - row) <= tol * (1.0 + np.linalg.norm(row)):
            hits += 1
    return hits


def one_product_member_mask(cone, z: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Membership mask of the rows of z (frame coordinates) from one product over every normal.

    Each row is scored against all of the cone's outer normals at once, and is
    in the cone when its largest score is at most tol * (1 + |z|).
    """
    scores = z @ (cone.frame @ cone.data.normals.T)
    bound = tol * (1.0 + np.sqrt(np.einsum("ij,ij->i", z, z)))
    return scores.max(axis=1, initial=-np.inf) <= bound


def lp_strict_separation(rows: np.ndarray) -> bool:
    """True iff some c has <row_i, c> > 0 for all i: the margin LP route."""
    rows = np.asarray(rows, dtype=float)
    m, r = rows.shape
    c_obj = np.zeros(r + 1)
    c_obj[-1] = -1.0
    a_ub = np.hstack([-rows, np.ones((m, 1))])
    res = linprog(c_obj, A_ub=a_ub, b_ub=np.zeros(m), bounds=[(-1, 1)] * r + [(None, None)])
    return res.status == 0 and res.x[-1] > 1e-9


def lp_zonotope_f_vector(generators: np.ndarray) -> tuple[int, ...]:
    """Zonotope f-vector by sign-pattern enumeration with the LP feasibility test."""
    from scipy.linalg import null_space

    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    counts = [0] * d
    for k in range(d):
        for subset in combinations(range(n), k):
            basis = np.eye(d) if k == 0 else null_space(g[list(subset)])
            rest = [i for i in range(n) if i not in subset]
            w = g[rest] @ basis
            wn = w / np.linalg.norm(w, axis=1, keepdims=True)
            m = wn.shape[0]
            total = 0

            def rec(depth: int, rows: list[np.ndarray]) -> None:
                nonlocal total
                if depth == m:
                    total += 1
                    return
                for s in (1.0, -1.0):
                    cand = rows + [s * wn[depth]]
                    if lp_strict_separation(np.array(cand)):
                        rec(depth + 1, cand)

            rec(1, [wn[0]])
            counts[k] += 2 * total
    return tuple(counts)


# the SVD oracle's own general-position tolerance, on unit generators: below
# it the signs of its rays' cosines are not to be trusted.  The library has
# none (it decides small minors exactly), so a draw within it would make
# the oracle's rows differ from simulate's, and the comparing test fail
_SVD_TOL = 1e-9


def svd_zonotope_f_vector(generators: np.ndarray) -> tuple[int, ...]:
    """Zonotope f-vector from covectors at rays found by SVD, one generator set at a time.

    A count of faces where the library takes a closed form: a k-face is a
    covector of the generators' hyperplane arrangement with k zeros, and in a
    simple arrangement every covector lies next to a ray.  The ray of d-1
    generators is the last right singular vector of their normalized rows,
    covector signs are its cosines with the generators, and one np.unique
    over the base-3 keys of every ray's sign vector, its d-1 zeros filled in
    all 3^(d-1) ways, counts the faces.
    General position is checked by the smallest singular value of every d-1
    normalized generators and the cosine of every other one with their ray,
    at the oracle's own _SVD_TOL, and raises the library's
    DegenerateGeometryError.
    """
    from itertools import product

    from polyproj.errors import DegenerateGeometryError

    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms <= _SVD_TOL * norms.max()):
        raise DegenerateGeometryError("zero generator")
    unit = g / norms[:, None]
    subsets = np.array(list(combinations(range(n), d - 1)))
    _, sing, vt = np.linalg.svd(unit[subsets])
    if np.any(sing[:, -1] <= _SVD_TOL):
        raise DegenerateGeometryError(f"some {d - 1} generators are rank-deficient")
    rays = vt[:, -1]
    cos = rays @ unit.T
    on_span = np.zeros(cos.shape, dtype=bool)
    np.put_along_axis(on_span, subsets, True, axis=1)
    if np.any(np.abs(cos[~on_span]) <= _SVD_TOL):
        raise DegenerateGeometryError(f"a generator lies in the span of {d - 1} others")
    # base-3 covector keys, digit 0 for a zero, 1 for +, 2 for -; the zero
    # count rides above the n digits, so one unique counts every k at once
    digits = np.where(cos > 0, 1, 2)
    digits[on_span] = 0
    pow3 = 3 ** np.arange(n + 1, dtype=np.int64)
    ray_keys = np.stack([digits, (3 - digits) % 3]) @ pow3[:n]  # each ray and its negative
    fills = np.array(list(product(range(3), repeat=d - 1)), dtype=np.int64)
    fill_keys = pow3[subsets] @ fills.T + (fills == 0).sum(axis=1) * pow3[n]
    keys = ray_keys[:, :, None] + fill_keys
    return tuple(int(c) for c in np.bincount(np.unique(keys) // pow3[n], minlength=d))


def zonotope_vertex_cloud(generators: np.ndarray) -> np.ndarray:
    """All subset sums of the generators; contains every vertex of the zonotope."""
    g = np.asarray(generators, dtype=float)
    n, d = g.shape
    pts = np.zeros((2**n, d))
    for i in range(2**n):
        mask = [(i >> j) & 1 for j in range(n)]
        pts[i] = (g * np.array(mask)[:, None]).sum(axis=0)
    return pts


def full_dimensional(points: np.ndarray) -> np.ndarray:
    """Re-express a flat point set in orthonormal coordinates of its affine hull."""
    pts = np.asarray(points, dtype=float)
    rel = pts - pts[0]
    _, s, vt = np.linalg.svd(rel, full_matrices=False)
    rank = int((s > 1e-10 * s[0]).sum())
    return rel @ vt[:rank].T


def rounded_facet_f_vector(points: np.ndarray) -> tuple[int, ...]:
    """f-vector of a full-dimensional hull, facets grouped by rounded equations.

    Every simplex of qhull's triangulated output is filed under its
    [normal, offset] row rounded to 9 places, one simplex at a time;
    simplicial hulls count k-faces as distinct (k+1)-subsets of facets, and
    merged ones close the facets under intersection and rank each face.
    Rounding can split one facet whose rows straddle a rounding boundary, so
    inputs are kept away from such near-ties.
    """
    pts = np.asarray(points, dtype=float)
    d = pts.shape[1]
    hull = ConvexHull(pts)
    groups: dict[bytes, set[int]] = {}
    for simplex, eq in zip(hull.simplices, hull.equations):
        groups.setdefault(np.round(eq, 9).tobytes(), set()).update(int(v) for v in simplex)
    facet_sets = [frozenset(g) for g in groups.values()]
    counts = [0] * d
    counts[0] = len(hull.vertices)
    counts[d - 1] = len(facet_sets)
    if d <= 2:
        return tuple(counts)
    if all(len(fs) == d for fs in facet_sets):
        for k in range(1, d - 1):
            counts[k] = len({sub for fs in facet_sets for sub in combinations(sorted(fs), k + 1)})
        return tuple(counts)
    faces = set(facet_sets)
    frontier = list(facet_sets)
    while frontier:
        fresh = []
        for f in frontier:
            for g in facet_sets:
                h = f & g
                if h and h not in faces:
                    faces.add(h)
                    fresh.append(h)
        frontier = fresh
    rank_tol = 1e-9 * float(np.abs(pts - pts.mean(axis=0)).max())
    counts = [0] * d
    counts[d - 1] = len(facet_sets)
    for fs in faces.difference(facet_sets):
        idx = sorted(fs)
        dim = 0 if len(idx) == 1 else int(np.linalg.matrix_rank(pts[idx[1:]] - pts[idx[0]], tol=rank_tol))
        if dim <= d - 2:
            counts[dim] += 1
    return tuple(counts)


def model_cloud(model: str, n: int, d: int, rng) -> np.ndarray:
    """The point cloud of one draw of a hull model, written out model by model.

    The sampler simulate used before the model table: every model names its
    polytope and its map itself, and the vertices are multiplied out.
    """
    from polyproj.families import Family, vertices
    from polyproj.hull import random_orthonormal_frame

    if model == "gaussian":
        return rng.standard_normal((n, d))
    if model == "symmetric":
        cloud = rng.standard_normal((n, d))
        return np.vstack([cloud, -cloud])
    if model == "projected_simplex":
        verts = vertices(Family.SIMPLEX, n - 1)
    elif model == "projected_crosspolytope":
        verts = vertices(Family.CROSSPOLYTOPE, n)
    elif model == "projected_cube":
        verts = vertices(Family.CUBE, n)
    else:
        raise ValueError(f"model {model!r} has no point-cloud sampler")
    frame = random_orthonormal_frame(verts.shape[1], d, rng)
    return verts @ frame


def colex_subsets(m: int, k: int) -> list[tuple[int, ...]]:
    """The k-subsets of range(m) as sorted tuples in colex order: those without m - 1, in this order for m - 1, then those with it."""
    if k == 0:
        return [()]
    if k > m:
        return []
    return colex_subsets(m - 1, k) + [s + (m - 1,) for s in colex_subsets(m - 1, k - 1)]


def minor_levels_by_loops(m: int, d: int) -> list:
    """hull._laplace_level(m, k) for k = 2..d, subset by subset through a dictionary of positions.

    Level k (k = 2..d) is the pair (at, sub): at[p] is the p-th row of each
    k-subset S in colex order, and sub[p] the position of S without S_p
    among the (k-1)-subsets.
    """
    subsets = [colex_subsets(m, k) for k in range(d + 1)]
    where = [{s: r for r, s in enumerate(level)} for level in subsets]
    levels = []
    for k in range(2, d + 1):
        sub = [[where[k - 1][s[:p] + s[p + 1 :]] for p in range(k)] for s in subsets[k]]
        levels.append((np.array(subsets[k]).T, np.array(sub).T))
    return levels


def covector_sign_by_loops(n: int, d: int) -> np.ndarray:
    """hull._insertions(n, d), one (ray, generator) pair at a time.

    For the r-th (d-1)-subset s and a generator i outside it, the entry is the
    position of s + i among the d-subsets, plus C(n, d) when an odd number of
    s lies above i; it is 2 C(n, d) for i in s.
    """
    top = math.comb(n, d)
    where = {s: r for r, s in enumerate(colex_subsets(n, d))}
    rays = colex_subsets(n, d - 1)
    sign = np.full((len(rays), n), 2 * top, dtype=np.intp)
    for r, s in enumerate(rays):
        for i in set(range(n)).difference(s):
            odd = sum(x > i for x in s) % 2
            sign[r, i] = where[tuple(sorted((*s, i)))] + odd * top
    return sign


def side_table_by_permutations(m: int, d: int) -> np.ndarray:
    """hull._side_table, one entry at a time from the sign of each permutation.

    For the r-th d-subset s and the a-th row i outside it, the minor with
    s's p-th row replaced by i is that of the sorted rows times the sign of
    the permutation that sorts them, counted by its inversions; the entry
    indexes the minors stacked on their negatives.
    """
    facets = colex_subsets(m, d)
    where = {s: r for r, s in enumerate(facets)}
    top = len(facets)
    swap = np.empty((d, top, m - d), dtype=np.intp)
    for r, s in enumerate(facets):
        for a, i in enumerate(sorted(set(range(m)).difference(s))):
            for p in range(d):
                t = s[:p] + (i,) + s[p + 1 :]
                odd = sum(x > y for x, y in combinations(t, 2)) % 2
                swap[p, r, a] = where[tuple(sorted(t))] + odd * top
    return swap


def lifted_side_table_by_loops(m: int, d: int) -> np.ndarray:
    """hull._lifted_side_table, one (d-subset, row) pair at a time.

    For the r-th d-subset s and the a-th row i outside it, the entry is the
    position of s + i among the (d+1)-subsets, plus C(m, d+1), which
    indexes the negated minors, when an even number of s lies above i.
    """
    top = math.comb(m, d + 1)
    where = {s: r for r, s in enumerate(colex_subsets(m, d + 1))}
    facets = colex_subsets(m, d)
    table = np.empty((len(facets), m - d), dtype=np.intp)
    for r, s in enumerate(facets):
        for a, i in enumerate(sorted(set(range(m)).difference(s))):
            even = sum(x > i for x in s) % 2 == 0
            table[r, a] = where[tuple(sorted((*s, i)))] + even * top
    return table


def incidence_by_loops(m: int, d: int, symmetric: bool) -> np.ndarray:
    """hull._incidence, one (candidate, column) pair at a time through signed sets.

    Candidate (e, I), sign vector e major and the d-subset I in colex order,
    is the signed set {(I_p, eps_p)}, eps_0 = +1 and eps_p = -1 where bit
    p - 1 of e is set; only e = 0 for the rows' hull.  For j = 1 .. d/2 - 1,
    class s major and the j-subset J in colex order, a column is the signed
    set {(J_t, sigma_t)}, sigma_0 = +1 and sigma_t = -1 where bit t - 1 of s
    is set, with s < 2^(j-1) for the symmetric hull and s = 0 for the rows'.
    A column is marked where the candidate's signed set, or its antipode,
    holds it; the last column, the facet count's, is marked everywhere.
    """
    def signed(rows, bits):
        return frozenset((i, -1 if t and bits >> (t - 1) & 1 else 1) for t, i in enumerate(rows))

    columns = [signed(subset, s) for j in range(1, d // 2) for s in range((1 << (j - 1)) if symmetric else 1)
               for subset in colex_subsets(m, j)]
    candidates = [signed(subset, e) for e in range((1 << (d - 1)) if symmetric else 1)
                  for subset in colex_subsets(m, d)]
    table = np.zeros((len(candidates), len(columns) + 1))
    for r, candidate in enumerate(candidates):
        antipode = frozenset((i, -sign) for i, sign in candidate)
        for c, column in enumerate(columns):
            table[r, c] = column <= candidate or column <= antipode
    table[:, -1] = 1.0
    return table


def filter_margin(cloud: np.ndarray) -> float:
    """The float filter's margin of one cloud of hull._enumerated_facets: _rounding_margin(d) (1 + R)(2R)^(d-1), R its largest point norm."""
    from polyproj.hull import _rounding_margin

    d = cloud.shape[1]
    largest = float(np.sqrt((cloud * cloud).sum(axis=1).max()))
    return _rounding_margin(d) * (1 + largest) * (2 * largest) ** (d - 1)


def near_row(cloud: np.ndarray, symmetric: bool, fraction: float, rng) -> np.ndarray:
    """A row 0 for an m x d cloud whose side value is fraction times the cloud's margin (filter_margin of rows 1..).

    It is a point of the simplex of d vertices moved along the normal of
    their hyperplane: rows 1..d; for the symmetric hull a facet of the hull
    of rows 1.. and their negatives, or at m = d, where the value tested is
    |2 chi|, the origin and rows 1..d-1.  The side value det[V, 1; p, 1] is
    affine in p, with a gradient as long as (d-1)! times the simplex's
    (d-1)-volume, the product of the singular values of its edges from
    vertex 0; for a signed set eps*I as V it is also
    +-(|sum_j eps_j c_pj| - |chi(I)|), the value the symmetric test compares
    (Schur complement: det[V, 1; p, 1] = det V (1 - p V^-1 1)).
    """
    m, d = cloud.shape
    if not symmetric:
        vertices = cloud[1 : d + 1]
    elif m > d:
        hull = ConvexHull(np.vstack([cloud[1:], -cloud[1:]]))
        vertices = hull.points[hull.simplices[0]]
    else:
        vertices, fraction = np.vstack([np.zeros(d), cloud[1:]]), fraction / 2
    weights = rng.random(d)
    _, singular, basis = np.linalg.svd(vertices[1:] - vertices[0])
    value = fraction * filter_margin(cloud[1:])
    return weights / weights.sum() @ vertices + value / singular.prod() * basis[-1]


def simplex_facets_by_side_sums(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """hull._enumerated_facets for the hulls of the maps' rows, each side test summed from d minors.

    With chi(I) the minor of rows I and c_ip that of X_I with its p-th row
    replaced by x_i, read through hull._side_table, x_i lies on the side
    sum_p c_ip - chi(I) of the hyperplane through X_I; a cloud with such a
    value within its margin (filter_margin) of 0 is near.  Returns the near
    flags, the simplices of the other clouds in cloud order and how many
    belong to each.
    """
    from polyproj.hull import _Workspace, _minors, _side_table, _subsets

    m, d = maps.shape[1:]
    x = np.ascontiguousarray(maps.transpose(1, 2, 0))
    subsets = _subsets(m, d)
    swap = _side_table(m, d).transpose(1, 2, 0)  # [p, r, a]
    chi = _minors(x, _Workspace())
    signed = np.concatenate([chi, -chi])
    side = signed[swap[0]] - chi[:, None]
    for p in range(1, d):
        side += signed[swap[p]]
    near = (np.abs(side) <= [filter_margin(cloud) for cloud in maps]).any(axis=(0, 1))
    above = (side > 0).sum(axis=1)
    facet = ((above == 0) | (above == m - d)).T[~near]
    return near, subsets[np.nonzero(facet)[1]], facet.sum(axis=1)


def leibniz_det(rows) -> Fraction:
    """The determinant of a square matrix, its entries as exact Fractions, as the signed sum over permutations."""
    a = [[Fraction(v) for v in row] for row in rows]
    total = Fraction(0)
    for perm in permutations(range(len(a))):
        inversions = sum(x > y for x, y in combinations(perm, 2))
        total += (-1) ** inversions * math.prod(a[i][j] for i, j in enumerate(perm))
    return total


def int_rref(rows) -> tuple[list, list]:
    """A reduced row echelon form of an int matrix, kept on ints, and its pivot columns.

    Row k is a multiple of the k-th row of the reduced form over the
    rationals: each pivot row clears its column from every other row by
    cross-multiplication, and each row it changes is divided by the gcd of
    its entries, which keeps the ints short.  No step divides by a minor.
    """
    a = [list(row) for row in rows]
    pivots = []
    for col in range(len(a[0])):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][col]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        top = a[r]
        for row in a:
            if row is not top and row[col]:
                f, g = top[col], row[col]
                row[:] = [f * v - g * t for v, t in zip(row, top)]
                k = math.gcd(*row) or 1
                row[:] = [v // k for v in row]
        pivots.append(col)
    return a, pivots


def exact_hull_f_vector(cloud: np.ndarray, symmetric: bool = False) -> tuple[int, ...] | None:
    """The f-vector of the hull of a cloud's rows, with their negatives if symmetric, from exact side tests; None for a flat draw.

    Every float entry is taken as its exact ratio of ints, and the cloud is
    scaled to ints by their common denominator.  For the rows' hull, d rows
    I span a facet iff det[X_I, 1; y, 1] has one strict sign at every other
    row y; a zero there is d + 1 rows on one hyperplane, a flat draw.  Each
    determinant is a cofactor expansion along the last column, every smaller
    minor of [X | 1] taken once.  For the symmetric hull, eps*I spans the
    hyperplane u.y = 1 with X_I u = eps, so u.x_a = eps.mu_a for the
    coordinates mu_a of x_a in the basis X_I, read off a reduced row echelon
    form kept on ints (int_rref): eps*I is a facet iff every |u.x_a| < 1,
    and a singular X_I or a largest |u.x_a| of exactly 1 is a flat draw.
    Faces are counted as distinct subsets of the facets.  Meant for small
    shapes.
    """
    m, d = cloud.shape
    ratios = [[v.as_integer_ratio() for v in row] for row in cloud.tolist()]
    # scaled by the common denominator of its entries the cloud has the same hull
    scale = math.lcm(*(q for row in ratios for _, q in row))
    pts = [[p * (scale // q) for p, q in row] for row in ratios]
    lifted = [[*p, 1] for p in pts]

    @cache
    def minor(rows: tuple) -> int:
        # the minor of the sorted lifted rows on the leading len(rows) columns, expanded along the last of them
        k = len(rows)
        return sum((-1) ** (k - 1 - p) * lifted[r][k - 1] * minor(rows[:p] + rows[p + 1 :]) for p, r in enumerate(rows)) if k else 1

    facets = []
    sign_vectors = list(product((1, -1), repeat=d))
    signs = np.array(sign_vectors, dtype=object)
    for rows in combinations(range(m), d):
        if not symmetric:
            # det[X_I, 1; y, 1]: moving y past the rows of I above it sorts them
            sides = [(-1) ** sum(i > y for i in rows) * minor(tuple(sorted((*rows, y)))) for y in range(m) if y not in rows]
            if 0 in sides:
                return None
            if all(v > 0 for v in sides) or all(v < 0 for v in sides):
                facets.append(rows)
            continue
        # [X_I^T | the other rows, transposed] reduces to multiples of [1 | their coordinates mu_a]
        others = [pts[i] for i in range(m) if i not in rows]
        a, pivots = int_rref(zip(*(pts[i] for i in rows), *others))
        if pivots != list(range(d)):
            return None
        # over a common denominator, |u.x_a| < 1 is |eps.(den mu_a)| < den
        den = math.lcm(*(a[k][k] for k in range(d)))
        coords = np.array([[a[k][d + j] * (den // a[k][k]) for k in range(d)] for j in range(len(others))],
                          dtype=object).reshape(-1, d)
        # the largest |eps.(den mu_a)| of each sign vector eps, one product of Python ints
        worst = np.abs(signs @ coords.T).max(axis=1, initial=0)
        if (worst == den).any():
            return None
        facets += [[i + m * (e < 0) for i, e in zip(rows, eps)] for eps, w in zip(sign_vectors, worst) if w < den]
    return tuple(distinct_subset_f_vectors(np.array(facets).reshape(-1, d), [len(facets)])[0].tolist())


def distinct_subset_f_vectors(simplices: np.ndarray, sizes) -> np.ndarray:
    """The f-vector rows of simplicial hulls with every f_k counted, none read off the h-vector.

    The facets of every hull are stacked hull after hull, sizes[h] of hull h;
    f_{d-1} counts a hull's facets, and f_k for k <= d-2 its distinct sorted
    (k+1)-subsets of facet vertex ids, one np.unique per hull and k.
    """
    from polyproj.hull import _subsets

    d = simplices.shape[1]
    ordered = np.sort(simplices, axis=1)
    rows = np.empty((len(sizes), d), dtype=np.int64)
    for h, end in enumerate(np.cumsum(sizes)):
        facets = ordered[end - sizes[h] : end]
        rows[h, d - 1] = len(facets)
        for k in range(d - 1):
            rows[h, k] = len(np.unique(facets[:, _subsets(d, k + 1)].reshape(-1, k + 1), axis=0))
    return rows


def angle_chunk_draws(seed: int, path: tuple[int, ...], samples: int, dim: int) -> np.ndarray:
    """The angle sampler's samples x dim rows at seed path `path`; chunk c, rows c 2^15 on, is one (count, dim) draw."""
    from polyproj.streams import ANGLE_SAMPLES, derive_generator

    return np.concatenate([derive_generator(seed, ANGLE_SAMPLES, *path, c).standard_normal((min(1 << 15, samples - start), dim))
                           for c, start in enumerate(range(0, samples, 1 << 15))])


def erfc_angle_estimate(cone, seed: int, samples: int) -> tuple[float, float]:
    """cone_angle's value and standard error on one-call chunk draws of the cone's cross-section.

    Each row w scores Phi(-max_i <R_i, w>) = erfc(max_i <R_i, w> / sqrt 2) / 2
    by math.erfc; the value is NumPy's mean and the standard error NumPy's
    standard deviation over sqrt(samples).
    """
    w = angle_chunk_draws(seed, cone.seed_path, samples, cone.cross_section.shape[0])
    lam = (w @ cone.ray_normals.T).max(axis=1)
    h = np.array([0.5 * math.erfc(v / math.sqrt(2.0)) for v in lam.tolist()])
    return float(h.mean()), float(h.std()) / math.sqrt(samples)


def per_replication_rows(model: str, n: int, d: int, seed: int, replications: int,
                         sampler=model_cloud) -> tuple[np.ndarray, np.ndarray]:
    """simulate's f-vector rows and per-replication degenerate counts, one replication at a time.

    The replication loop simulate_expected_f ran before it worked a block at
    a time: every attempt builds its own generator with derive_generator and
    counts its hull alone with hull_f_vector, or its zonotope with
    svd_zonotope_f_vector.  Point clouds come from `sampler`, model_cloud
    unless another is given; zonotope generators and projected-cube frames
    are drawn here.  The projected models' vertices are multiplied by Haar
    frames, so their rows check, draw by draw, that simulate may count them
    on the Gaussian matrices whose Q factors the frames are.
    """
    from polyproj.errors import DegenerateGeometryError, SimulationAbortError
    from polyproj.hull import _MAX_ATTEMPTS, hull_f_vector, random_orthonormal_frame
    from polyproj.streams import MODEL_CODES, SIM_REPLICATION, derive_generator

    rows = np.zeros((replications, d), dtype=np.int64)
    degenerate = np.zeros(replications, dtype=np.int64)
    for index in range(replications):
        for attempt in range(_MAX_ATTEMPTS):
            rng = derive_generator(seed, SIM_REPLICATION, MODEL_CODES[model], n, d, index, attempt)
            try:
                if model == "zonotope":
                    counts = svd_zonotope_f_vector(rng.standard_normal((n, d)))
                elif model == "projected_cube":
                    counts = svd_zonotope_f_vector(random_orthonormal_frame(n, d, rng))
                else:
                    fv = hull_f_vector(sampler(model, n, d, rng))
                    if fv.degenerate:
                        degenerate[index] += 1
                        continue
                    counts = fv.counts
            except DegenerateGeometryError:
                degenerate[index] += 1
                continue
            rows[index] = counts
            break
        else:
            raise SimulationAbortError(f"replication {index} stayed degenerate",
                                       degenerate=int(degenerate[index]), replications=index)
    return rows, degenerate
