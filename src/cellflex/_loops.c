/* The cell's compiled inner loops: the plants' substeps, the radial power
 * flow, the twin's changed-offset scan and the objective's plant cost.
 *
 * store_run is the substep body of batteries and EVs, hp_run that of heat
 * pumps, each written once.  storage_substeps and heat_pump_substeps run
 * one interval through them (BatteryStorage, ElectricVehicle and
 * HeatPumpSystem steps); storage_blocks and heat_pump_blocks run a tuple
 * of intervals with no offset, the state carried from each into the next
 * (the plants' warm_up, one call per plant for the whole warmup).
 * plants.py describes the models; each method there passes its plant's
 * parameters and state to one of these entries and writes the returned
 * state back.  power_flow is the backward/forward sweep behind
 * grid.solve_power_flow, run over the plan GridTopology builds once;
 * changed_offsets is the twin's rule for the plants an evaluation must
 * re-integrate, and plant_cost(weights, values, ref) the dispatch
 * objective's plant term, summed in plant order so that no BLAS kernel
 * picks the order of its additions.
 *
 * Each loop replays Python float arithmetic bit for bit: the same operations
 * in the same order, comparisons instead of min/max with Python's tie rules,
 * Python's float % (fmod plus a sign fix, py_mod) and NaN compares as in
 * Python.  The sweep replays CPython's complex arithmetic the same way: its
 * product, quotient (with the branch on |b.real| >= |b.imag|), sum,
 * difference and abs (hypot, with its inf/NaN rules and overflow error),
 * a real operand taken as (x, 0.0), and sum() added left to right from 0j.
 * The only exp, the lag factor, is computed in Python and passed in.  Built
 * with -O2 -fno-fast-math -ffp-contract=off (see _build.py): contracting
 * a*b + c into a fused multiply-add would change the last bit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define DAY_S 86400.0

/* Python's x % m for floats with m > 0: the remainder takes the sign of m,
   and a zero remainder is +0.0 */
static double
py_mod(double x, double m)
{
    double mod = fmod(x, m);
    if (mod) {
        if ((m < 0) != (mod < 0))
            mod += m;
    }
    else {
        mod = copysign(0.0, m);
    }
    return mod;
}

/* the plants' clamp(value, lo, hi) */
static double
clamp(double value, double lo, double hi)
{
    if (value < lo)
        return lo;
    if (value > hi)
        return hi;
    return value;
}

/* Read `arg` as a float into out; -1 with an exception set on failure.
   An exact float is read in place, without the call. */
static int
as_double(PyObject *arg, double *out)
{
    if (PyFloat_CheckExact(arg)) {
        *out = PyFloat_AS_DOUBLE(arg);
        return 0;
    }
    *out = PyFloat_AsDouble(arg);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Block j of the tuple `blocks`, borrowed; NULL with TypeError unless it
   is a 3-tuple */
static PyObject *
block_at(PyObject *blocks, Py_ssize_t j)
{
    PyObject *block = PyTuple_GET_ITEM(blocks, j);
    if (!PyTuple_Check(block) || PyTuple_GET_SIZE(block) != 3) {
        PyErr_SetString(PyExc_TypeError, "a block must be a 3-tuple");
        return NULL;
    }
    return block;
}

/* A store's state, carried from substep to substep and block to block */
typedef struct {
    double soc, p, drained;
    int saturated;
} store_state;

/* What a store holds over a call: its offset, rating bounds, substep,
   parameters and lag factor, and with has_away its trip window (first
   departure, last return) and the (departure, return, energy) triple of
   each of its n_trips trips, in a PyMem buffer */
typedef struct {
    double offset_kw, lo, hi, dt, cap, eta_c, eta_d, lag;
    int has_away;
    double away_from, away_to, *trips;
    Py_ssize_t n_trips;
} store_params;

/* The storage substep body: advance `st` n substeps, the first starting at
   time of day base_tod, toward wish_kw (with has_wish) or, without, toward
   charging until full */
static void
store_run(store_state *st, const store_params *sp, Py_ssize_t n,
          int has_wish, double wish_kw, double base_tod)
{
    double soc = st->soc, p = st->p, drained = st->drained;
    int saturated = st->saturated;
    const double offset_kw = sp->offset_kw, lo = sp->lo, hi = sp->hi;
    const double dt = sp->dt, cap = sp->cap, eta_c = sp->eta_c;
    const double eta_d = sp->eta_d, lag = sp->lag;
    const double away_from = sp->away_from, away_to = sp->away_to;
    const int has_away = sp->has_away;

    double charge_div = eta_c * dt;
    Py_ssize_t k = 0;
    while (k < n) {
        if (has_away) {
            double tod = py_mod(base_tod + (double)k * dt, DAY_S);
            if (away_from <= tod && tod < away_to) {
                while (k < n && away_from <= tod && tod < away_to) {
                    Py_ssize_t k_pass = k;
                    double drain = 0.0, drop = 0.0;
                    for (Py_ssize_t j = 0; j < sp->n_trips; j++) {
                        const double *trip = sp->trips + 3 * j;
                        double dep = trip[0], ret = trip[1], energy = trip[2];
                        if (dep <= tod && tod < ret) {
                            drain = energy * dt / (ret - dep);
                            drop = drain / cap;
                        }
                        while (k < n && dep <= tod && tod < ret) {
                            /* min(uniform drain, stored energy), ties to the
                               drain */
                            double stored = soc * cap;
                            if (stored < drain) {
                                drained += stored;
                                soc = soc - stored / cap;
                            }
                            else {
                                drained += drain;
                                soc = soc - drop;
                            }
                            k += 1;
                            tod = py_mod(base_tod + (double)k * dt, DAY_S);
                        }
                    }
                    if (k == k_pass) {      /* at home between two trips */
                        k += 1;
                        tod = py_mod(base_tod + (double)k * dt, DAY_S);
                    }
                }
                p = 0.0;
                saturated = offset_kw != 0.0;
                continue;
            }
        }
        /* SOC headroom over this substep, as charge and discharge power,
           folded into the rating bounds (on a tie the rating is kept) */
        double room_c = (1.0 - soc) * cap * 3600.0 / charge_div;
        double room_d = soc * cap * 3600.0 * eta_d / dt;
        double lo_k = -room_d > lo ? -room_d : lo;
        double hi_k = room_c < hi ? room_c : hi;
        double wanted;
        if (!has_wish) {
            wanted = (soc < 1.0 ? hi : 0.0) + offset_kw;
        }
        else {
            double w = wish_kw;
            if (w < lo_k)
                w = lo_k;
            else if (w > hi_k)
                w = hi_k;
            wanted = w + offset_kw;
        }
        double cmd = wanted;
        if (cmd < lo_k)
            cmd = lo_k;
        else if (cmd > hi_k)
            cmd = hi_k;
        saturated = cmd != wanted;
        double p_start = p, soc_start = soc;
        p = p + (cmd - p) * lag;
        /* pin an overshoot of the lag to the same bounds */
        double pinned = p;
        if (pinned < lo_k)
            pinned = lo_k;
        else if (pinned > hi_k)
            pinned = hi_k;
        if (pinned != p) {
            p = pinned;
            saturated = 1;
        }
        if (p > 0.0)
            soc += p * eta_c * dt / 3600.0 / cap;
        else if (p < 0.0)
            soc += p / eta_d * dt / 3600.0 / cap;
        if (soc < 0.0)
            soc = 0.0;
        else if (soc > 1.0)
            soc = 1.0;
        k += 1;
        if (p == p_start && soc == soc_start
                && copysign(1.0, p) == copysign(1.0, p_start)
                && copysign(1.0, soc) == copysign(1.0, soc_start)) {
            /* settled: stop unless a later substep is away (time of day
               grows until it wraps) */
            if (!has_away)
                break;
            double tod = py_mod(base_tod + (double)k * dt, DAY_S);
            double tod_end = py_mod(base_tod + (double)(n - 1) * dt, DAY_S);
            if ((double)(n - k) * dt < 43200.0 && tod <= tod_end
                    && (tod_end < away_from || away_to <= tod))
                break;
            while (k < n) {
                tod = py_mod(base_tod + (double)k * dt, DAY_S);
                if (away_from <= tod && tod < away_to)
                    break;
                k += 1;
            }
        }
    }

    st->soc = soc;
    st->p = p;
    st->drained = drained;
    st->saturated = saturated;
}

/* Read (soc, p, saturated, drained) from args[0..3]; -1 on failure */
static int
read_store_state(PyObject *const *args, store_state *st)
{
    st->saturated = PyObject_IsTrue(args[2]);
    if (st->saturated < 0)
        return -1;
    return as_double(args[0], &st->soc) || as_double(args[1], &st->p)
        || as_double(args[3], &st->drained) ? -1 : 0;
}

/* Read the trip window `away` (None or a 2-tuple) and, with one, the tuple
   `trips` of (departure, return, energy) tuples into sp; -1 on failure.
   On success the caller frees sp->trips. */
static int
read_trips(PyObject *away, PyObject *trips, store_params *sp)
{
    sp->trips = NULL;
    sp->n_trips = 0;
    sp->away_from = sp->away_to = 0.0;
    sp->has_away = away != Py_None;
    if (!sp->has_away)
        return 0;
    if (!PyTuple_Check(away) || PyTuple_GET_SIZE(away) != 2
            || !PyTuple_Check(trips)) {
        PyErr_SetString(PyExc_TypeError,
                        "away must be a 2-tuple and trips a tuple");
        return -1;
    }
    if (as_double(PyTuple_GET_ITEM(away, 0), &sp->away_from)
            || as_double(PyTuple_GET_ITEM(away, 1), &sp->away_to))
        return -1;
    Py_ssize_t n = PyTuple_GET_SIZE(trips);
    sp->trips = PyMem_Malloc((n > 0 ? n : 1) * 3 * sizeof(double));
    if (sp->trips == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t j = 0; j < n; j++) {
        PyObject *item = PyTuple_GET_ITEM(trips, j);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 3) {
            PyErr_SetString(PyExc_TypeError, "a trip must be a 3-tuple");
            goto fail;
        }
        for (Py_ssize_t i = 0; i < 3; i++)
            if (as_double(PyTuple_GET_ITEM(item, i), &sp->trips[3 * j + i]))
                goto fail;
    }
    sp->n_trips = n;
    return 0;
fail:
    PyMem_Free(sp->trips);
    sp->trips = NULL;
    return -1;
}

static PyObject *
store_result(const store_state *st)
{
    return Py_BuildValue("(ddNd)", st->soc, st->p,
                         PyBool_FromLong(st->saturated), st->drained);
}

PyDoc_STRVAR(storage_doc,
"storage_substeps(soc, p, saturated, drained, wish_kw, offset_kw, lo, hi,\n"
"                 n, dt, base_tod_s, capacity_kwh, eta_charge,\n"
"                 eta_discharge, lag, away, trips)\n"
"--\n\n"
"Advance a store n substeps; returns (soc, p, saturated, drained).\n\n"
"`wish_kw` is None for an EV charging until full; `away` is the trip\n"
"window (first departure, last return) in s of day or None, `trips` the\n"
"(departure, return, energy) tuples it spans.");

static PyObject *
storage_substeps(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    store_state st;
    store_params sp;
    double wish_kw = 0.0, base_tod;
    if (nargs != 17) {
        PyErr_Format(PyExc_TypeError,
                     "storage_substeps() takes 17 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_ssize_t n = PyLong_AsSsize_t(args[8]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    int has_wish = args[4] != Py_None;
    if (read_store_state(args, &st) < 0
            || (has_wish && as_double(args[4], &wish_kw))
            || as_double(args[5], &sp.offset_kw) || as_double(args[6], &sp.lo)
            || as_double(args[7], &sp.hi) || as_double(args[9], &sp.dt)
            || as_double(args[10], &base_tod) || as_double(args[11], &sp.cap)
            || as_double(args[12], &sp.eta_c) || as_double(args[13], &sp.eta_d)
            || as_double(args[14], &sp.lag)
            || read_trips(args[15], args[16], &sp) < 0)
        return NULL;
    store_run(&st, &sp, n, has_wish, wish_kw, base_tod);
    PyMem_Free(sp.trips);
    return store_result(&st);
}

PyDoc_STRVAR(storage_blocks_doc,
"storage_blocks(soc, p, saturated, drained, lo, hi, dt, capacity_kwh,\n"
"               eta_charge, eta_discharge, lag, away, trips, blocks)\n"
"--\n\n"
"Advance a store over consecutive intervals with no offset; returns\n"
"(soc, p, saturated, drained) after the last.\n\n"
"`blocks` holds an (n, wish_kw, base_tod_s) tuple per interval, the\n"
"arguments storage_substeps takes per interval; each interval starts from\n"
"the state the one before it ends in, as consecutive storage_substeps\n"
"calls with offset_kw 0.0 would.");

static PyObject *
storage_blocks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    store_state st;
    store_params sp;
    if (nargs != 14) {
        PyErr_Format(PyExc_TypeError,
                     "storage_blocks() takes 14 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *blocks = args[13];
    if (!PyTuple_Check(blocks)) {
        PyErr_SetString(PyExc_TypeError, "blocks must be a tuple");
        return NULL;
    }
    sp.offset_kw = 0.0;
    if (read_store_state(args, &st) < 0
            || as_double(args[4], &sp.lo) || as_double(args[5], &sp.hi)
            || as_double(args[6], &sp.dt) || as_double(args[7], &sp.cap)
            || as_double(args[8], &sp.eta_c) || as_double(args[9], &sp.eta_d)
            || as_double(args[10], &sp.lag)
            || read_trips(args[11], args[12], &sp) < 0)
        return NULL;
    for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(blocks); j++) {
        double wish_kw = 0.0, base_tod;
        PyObject *block = block_at(blocks, j);
        if (block == NULL)
            goto fail;
        Py_ssize_t n = PyLong_AsSsize_t(PyTuple_GET_ITEM(block, 0));
        if (n == -1 && PyErr_Occurred())
            goto fail;
        PyObject *wish = PyTuple_GET_ITEM(block, 1);
        int has_wish = wish != Py_None;
        if ((has_wish && as_double(wish, &wish_kw))
                || as_double(PyTuple_GET_ITEM(block, 2), &base_tod))
            goto fail;
        store_run(&st, &sp, n, has_wish, wish_kw, base_tod);
    }
    PyMem_Free(sp.trips);
    return store_result(&st);
fail:
    PyMem_Free(sp.trips);
    return NULL;
}

/* A heat pump's state, carried from substep to substep and block to block:
   tank temperature, thermostat, saturation, COP and the realized compressor
   (the lag's state) and element powers */
typedef struct {
    double t, cop, p_comp, p_elem;
    int heating, saturated;
} hp_state;

/* What a heat pump holds over a call: its offset, substep, parameters and
   lag factor */
typedef struct {
    double offset_kw, dt, p_el_max, p_element, effectiveness, t_on, t_off;
    double t_min, t_max, t_threshold, storage_kwh_per_k, lag;
} hp_params;

/* The heat-pump substep body: advance `st` n substeps under a held heat
   demand and ambient temperature */
static void
hp_run(hp_state *st, const hp_params *hp, Py_ssize_t n, double heat,
       double ambient)
{
    double t = st->t, cop = st->cop, p_comp = st->p_comp, p_elem = st->p_elem;
    int heating = st->heating, saturated = st->saturated;
    const double offset_kw = hp->offset_kw, dt = hp->dt;
    const double p_el_max = hp->p_el_max, p_element = hp->p_element;
    const double effectiveness = hp->effectiveness, lag = hp->lag;
    const double t_on = hp->t_on, t_off = hp->t_off, t_min = hp->t_min;
    const double t_max = hp->t_max, t_threshold = hp->t_threshold;
    double p_max_total = p_el_max + p_element;
    double c3600 = hp->storage_kwh_per_k * 3600.0;

    for (Py_ssize_t i = 0; i < n; i++) {
        /* min(ambient_c, t - 1.0), ties to the ambient temperature */
        double t_source = t - 1.0 < ambient ? t - 1.0 : ambient;
        cop = effectiveness * (t + 273.15) / (t - t_source);
        if (heating) {
            if (t >= t_off)
                heating = 0;
        }
        else if (t <= t_on) {
            heating = 1;
        }
        double wanted = (heating ? p_el_max : 0.0) + offset_kw;
        double cmd_total;
        if (wanted < 0.0)
            cmd_total = 0.0;
        else if (wanted > p_max_total)
            cmd_total = p_max_total;
        else
            cmd_total = wanted;
        saturated = cmd_total != wanted;
        /* min(wanted part, rating), ties to the wanted part */
        double cmd_comp, cmd_elem;
        if (t >= t_threshold) {
            cmd_comp = 0.0;
            cmd_elem = p_element < cmd_total ? p_element : cmd_total;
        }
        else {
            cmd_comp = p_el_max < cmd_total ? p_el_max : cmd_total;
            double rest = cmd_total - cmd_comp;
            cmd_elem = p_element < rest ? p_element : rest;
        }
        p_comp = p_comp + (cmd_comp - p_comp) * lag;
        p_elem = cmd_elem;
        double t_new = t + (cop * p_comp + p_elem - heat) * dt / c3600;

        if (t_new < t_min) {
            /* floor hold: cover demand plus the shortfall down to t_min */
            heating = 1;
            double need = heat + (t_min - t) * c3600 / dt;
            p_comp = clamp(need / cop, 0.0, p_el_max);
            p_elem = clamp(need - cop * p_comp, 0.0, p_element);
            t_new = t + (cop * p_comp + p_elem - heat) * dt / c3600;
            if (t_new < t_min)      /* undersized for this demand: pin */
                t_new = t_min;
            saturated = 1;
        }
        else if (t_new > t_max) {
            /* ceiling: shed the element first, then the compressor */
            double allowed = heat + (t_max - t) * c3600 / dt;
            p_elem = clamp(allowed - cop * p_comp, 0.0, p_elem);
            if (cop * p_comp + p_elem > allowed) {
                p_elem = 0.0;
                /* max(0.0, allowed), ties to 0.0 */
                p_comp = (allowed > 0.0 ? allowed : 0.0) / cop;
            }
            t_new = t + (cop * p_comp + p_elem - heat) * dt / c3600;
            if (t_new > t_max)
                t_new = t_max;
            saturated = 1;
        }
        t = t_new;
    }

    st->t = t;
    st->cop = cop;
    st->p_comp = p_comp;
    st->p_elem = p_elem;
    st->heating = heating;
    st->saturated = saturated;
}

/* Read (t, heating, saturated, cop, p_comp, p_elem) from args[0..5] */
static int
read_hp_state(PyObject *const *args, hp_state *st)
{
    st->heating = PyObject_IsTrue(args[1]);
    if (st->heating < 0)
        return -1;
    st->saturated = PyObject_IsTrue(args[2]);
    if (st->saturated < 0)
        return -1;
    return as_double(args[0], &st->t) || as_double(args[3], &st->cop)
        || as_double(args[4], &st->p_comp) || as_double(args[5], &st->p_elem)
        ? -1 : 0;
}

/* Read the substep and, from rating[0..9], p_el_max_kw through lag in the
   entries' argument order */
static int
read_hp_params(PyObject *dt, PyObject *const *rating, hp_params *hp)
{
    return as_double(dt, &hp->dt)
        || as_double(rating[0], &hp->p_el_max)
        || as_double(rating[1], &hp->p_element)
        || as_double(rating[2], &hp->effectiveness)
        || as_double(rating[3], &hp->t_on) || as_double(rating[4], &hp->t_off)
        || as_double(rating[5], &hp->t_min) || as_double(rating[6], &hp->t_max)
        || as_double(rating[7], &hp->t_threshold)
        || as_double(rating[8], &hp->storage_kwh_per_k)
        || as_double(rating[9], &hp->lag) ? -1 : 0;
}

static PyObject *
hp_result(const hp_state *st)
{
    return Py_BuildValue("(dNNddd)", st->t, PyBool_FromLong(st->heating),
                         PyBool_FromLong(st->saturated), st->cop, st->p_comp,
                         st->p_elem);
}

PyDoc_STRVAR(heat_pump_doc,
"heat_pump_substeps(t, heating, saturated, cop, p_comp, p_elem,\n"
"                   heat_demand_kw, ambient_c, offset_kw, n, dt, p_el_max_kw,\n"
"                   p_element_kw, effectiveness, t_on_c, t_off_c, t_min_c,\n"
"                   t_max_c, t_element_threshold_c, storage_kwh_per_k, lag)\n"
"--\n\n"
"Advance a heat pump n substeps; returns\n"
"(t, heating, saturated, cop, p_comp, p_elem).");

static PyObject *
heat_pump_substeps(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    hp_state st;
    hp_params hp;
    double heat, ambient;
    if (nargs != 21) {
        PyErr_Format(PyExc_TypeError,
                     "heat_pump_substeps() takes 21 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (read_hp_state(args, &st) < 0)
        return NULL;
    Py_ssize_t n = PyLong_AsSsize_t(args[9]);
    if ((n == -1 && PyErr_Occurred())
            || as_double(args[6], &heat) || as_double(args[7], &ambient)
            || as_double(args[8], &hp.offset_kw)
            || read_hp_params(args[10], args + 11, &hp) < 0)
        return NULL;
    hp_run(&st, &hp, n, heat, ambient);
    return hp_result(&st);
}

PyDoc_STRVAR(heat_pump_blocks_doc,
"heat_pump_blocks(t, heating, saturated, cop, p_comp, p_elem, dt,\n"
"                 p_el_max_kw, p_element_kw, effectiveness, t_on_c, t_off_c,\n"
"                 t_min_c, t_max_c, t_element_threshold_c,\n"
"                 storage_kwh_per_k, lag, blocks)\n"
"--\n\n"
"Advance a heat pump over consecutive intervals with no offset; returns\n"
"(t, heating, saturated, cop, p_comp, p_elem) after the last.\n\n"
"`blocks` holds an (n, heat_demand_kw, ambient_c) tuple per interval, the\n"
"arguments heat_pump_substeps takes per interval; each interval starts\n"
"from the state the one before it ends in.");

static PyObject *
heat_pump_blocks(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    hp_state st;
    hp_params hp;
    if (nargs != 18) {
        PyErr_Format(PyExc_TypeError,
                     "heat_pump_blocks() takes 18 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    PyObject *blocks = args[17];
    if (!PyTuple_Check(blocks)) {
        PyErr_SetString(PyExc_TypeError, "blocks must be a tuple");
        return NULL;
    }
    hp.offset_kw = 0.0;
    if (read_hp_state(args, &st) < 0
            || read_hp_params(args[6], args + 7, &hp) < 0)
        return NULL;
    for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(blocks); j++) {
        double heat, ambient;
        PyObject *block = block_at(blocks, j);
        if (block == NULL)
            return NULL;
        Py_ssize_t n = PyLong_AsSsize_t(PyTuple_GET_ITEM(block, 0));
        if ((n == -1 && PyErr_Occurred())
                || as_double(PyTuple_GET_ITEM(block, 1), &heat)
                || as_double(PyTuple_GET_ITEM(block, 2), &ambient))
            return NULL;
        hp_run(&st, &hp, n, heat, ambient);
    }
    return hp_result(&st);
}

/* CPython's _Py_c_quot: a / b into *q (re, im); -1 with ZeroDivisionError
   set for a zero divisor */
static int
c_quot(double ar, double ai, double br, double bi, double *q)
{
    double abs_br = br < 0 ? -br : br;
    double abs_bi = bi < 0 ? -bi : bi;
    if (abs_br >= abs_bi) {
        if (abs_br == 0.0) {
            PyErr_SetString(PyExc_ZeroDivisionError,
                            "complex division by zero");
            return -1;
        }
        double ratio = bi / br;
        double denom = br + bi * ratio;
        q[0] = (ar + ai * ratio) / denom;
        q[1] = (ai - ar * ratio) / denom;
    }
    else if (abs_bi >= abs_br) {
        double ratio = br / bi;
        double denom = br * ratio + bi;
        q[0] = (ar * ratio + ai) / denom;
        q[1] = (ai * ratio - ar) / denom;
    }
    else {                      /* a NaN in b */
        q[0] = q[1] = Py_NAN;
    }
    return 0;
}

/* Python's abs() of the complex re + im*j into *out; -1 with OverflowError
   set when finite parts give an infinite modulus */
static int
c_abs(double re, double im, double *out)
{
    if (!isfinite(re) || !isfinite(im)) {
        /* an infinite part wins over a NaN one */
        if (isinf(re))
            *out = fabs(re);
        else if (isinf(im))
            *out = fabs(im);
        else
            *out = Py_NAN;
        return 0;
    }
    *out = hypot(re, im);
    if (!isfinite(*out)) {
        PyErr_SetString(PyExc_OverflowError, "absolute value too large");
        return -1;
    }
    return 0;
}

PyDoc_STRVAR(power_flow_doc,
"power_flow(index_plan, impedance_plan, injections, v_ph_nom, v_floor,\n"
"           tol, max_sweeps, s_base)\n"
"--\n\n"
"Backward/forward sweep of one radial feeder.\n\n"
"`index_plan` packs, as native Py_ssize_t: the bus count n, the PCC,\n"
"the number k of its children, the n - 1 other buses in BFS order, their\n"
"parents, the bus each line feeds in line order and the PCC's children;\n"
"`impedance_plan` packs, as doubles, (r, x) of the line feeding each BFS\n"
"bus, then (r, x) of each line in line order.  `injections` holds\n"
"(p_kw, q_kvar) per bus.  Returns (pcc_p_kw, pcc_q_kvar, v, currents_a,\n"
"loss_p_kw, loss_q_kvar, sweeps, balance_error_pu); on a collapse\n"
"(bus, |V|) and when out of sweeps (-1, last voltage change), both in V.");

static PyObject *
power_flow(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double v_ph_nom, v_floor, tol, s_base;
    if (nargs != 8) {
        PyErr_Format(PyExc_TypeError,
                     "power_flow() takes 8 arguments (%zd given)", nargs);
        return NULL;
    }
    if (!PyBytes_Check(args[0]) || !PyBytes_Check(args[1])) {
        PyErr_SetString(PyExc_TypeError, "the sweep plan must be bytes");
        return NULL;
    }
    Py_ssize_t max_sweeps = PyLong_AsSsize_t(args[6]);
    if ((max_sweeps == -1 && PyErr_Occurred())
            || as_double(args[3], &v_ph_nom) || as_double(args[4], &v_floor)
            || as_double(args[5], &tol) || as_double(args[7], &s_base))
        return NULL;

    /* the plan, checked against its own sizes and bus count so that a bad
       one cannot index out of bounds */
    const Py_ssize_t *ip = (const Py_ssize_t *)PyBytes_AS_STRING(args[0]);
    Py_ssize_t n_ip = PyBytes_GET_SIZE(args[0]) / (Py_ssize_t)sizeof(*ip);
    Py_ssize_t n = n_ip >= 3 ? ip[0] : 0, m = n - 1, k = n_ip >= 3 ? ip[2] : 0;
    int bad = n < 1 || k < 0 || n_ip != 3 + 3 * m + k
        || PyBytes_GET_SIZE(args[1]) != 4 * m * (Py_ssize_t)sizeof(double);
    for (Py_ssize_t j = 1; !bad && j < n_ip; j++)
        bad = j != 2 && (ip[j] < 0 || ip[j] >= n);
    if (bad) {
        PyErr_SetString(PyExc_ValueError, "malformed sweep plan");
        return NULL;
    }
    Py_ssize_t root = ip[1];
    const Py_ssize_t *bfs = ip + 3, *par = bfs + m, *fed = par + m;
    const Py_ssize_t *children = fed + m;
    const double *z_bfs = (const double *)PyBytes_AS_STRING(args[1]);
    const double *z_line = z_bfs + 2 * m;

    PyObject *seq = PySequence_Fast(args[2], "injections must be a sequence");
    if (seq == NULL)
        return NULL;
    if (PySequence_Fast_GET_SIZE(seq) != 2 * n) {
        Py_DECREF(seq);
        PyErr_SetString(PyExc_ValueError, "injections need a pair per bus");
        return NULL;
    }
    PyObject *result = NULL;
    /* s: per-phase power in VA, v: voltage in V, acc: branch current in A,
       each as (re, im) per bus; loads: the buses with s != 0j */
    double *s = PyMem_Malloc(6 * n * sizeof(double) + n * sizeof(Py_ssize_t));
    if (s == NULL) {
        Py_DECREF(seq);
        return PyErr_NoMemory();
    }
    double *v = s + 2 * n, *acc = v + 2 * n, q[2];
    Py_ssize_t *loads = (Py_ssize_t *)(acc + 2 * n), n_loads = 0;
    const double va = 1000.0 / 3.0;

    for (Py_ssize_t i = 0; i < n; i++) {
        double p_kw, q_kvar;
        /* the size again: a __float__ may have shrunk the list */
        if (PySequence_Fast_GET_SIZE(seq) != 2 * n) {
            PyErr_SetString(PyExc_ValueError, "injections changed size");
            goto done;
        }
        if (as_double(PySequence_Fast_GET_ITEM(seq, 2 * i), &p_kw)
                || as_double(PySequence_Fast_GET_ITEM(seq, 2 * i + 1), &q_kvar))
            goto done;
        /* complex(p_kw, q_kvar) * (1000.0 / 3.0), 0j on the slack */
        s[2 * i] = i == root ? 0.0 : p_kw * va - q_kvar * 0.0;
        s[2 * i + 1] = i == root ? 0.0 : p_kw * 0.0 + q_kvar * va;
        if (s[2 * i] != 0.0 || s[2 * i + 1] != 0.0)
            loads[n_loads++] = i;
        v[2 * i] = v_ph_nom;
        v[2 * i + 1] = 0.0;
    }

    Py_ssize_t sweeps;
    double max_dv = 0.0;
    for (sweeps = 1; sweeps <= max_sweeps; sweeps++) {
        /* backward: load currents conj(s / v), then accumulate toward the
           root; acc of a bus ends as the current of the branch feeding it */
        for (Py_ssize_t j = 0; j < 2 * n; j++)
            acc[j] = 0.0;
        for (Py_ssize_t l = 0; l < n_loads; l++) {
            Py_ssize_t i = loads[l];
            if (c_quot(s[2 * i], s[2 * i + 1], v[2 * i], v[2 * i + 1], q) < 0)
                goto done;
            acc[2 * i] = q[0];
            acc[2 * i + 1] = -q[1];
        }
        for (Py_ssize_t j = m - 1; j >= 0; j--) {
            acc[2 * par[j]] += acc[2 * bfs[j]];
            acc[2 * par[j] + 1] += acc[2 * bfs[j] + 1];
        }
        /* forward: voltage drops v[par] - z * acc from the root outward */
        max_dv = 0.0;
        for (Py_ssize_t j = 0; j < m; j++) {
            Py_ssize_t b = bfs[j], p = par[j];
            double zr = z_bfs[2 * j], zi = z_bfs[2 * j + 1];
            double ar = acc[2 * b], ai = acc[2 * b + 1], dv, v_abs;
            double new_r = v[2 * p] - (zr * ar - zi * ai);
            double new_i = v[2 * p + 1] - (zr * ai + zi * ar);
            if (c_abs(new_r - v[2 * b], new_i - v[2 * b + 1], &dv) < 0)
                goto done;
            if (!(dv <= max_dv))        /* NaN counts as the largest change */
                max_dv = dv;
            v[2 * b] = new_r;
            v[2 * b + 1] = new_i;
            if (c_abs(new_r, new_i, &v_abs) < 0)
                goto done;
            if (!(v_abs >= v_floor)) {  /* NaN counts as a collapse */
                result = Py_BuildValue("(nd)", b, v_abs);
                goto done;
            }
        }
        if (max_dv / v_ph_nom < tol)
            break;
    }
    if (sweeps > max_sweeps) {
        result = Py_BuildValue("(nd)", (Py_ssize_t)-1, max_dv);
        goto done;
    }

    /* series losses 3 * |I|^2 * z per line, in line order */
    double loss_r = 0.0, loss_i = 0.0;
    for (Py_ssize_t j = 0; j < m; j++) {
        double ir = acc[2 * fed[j]], ii = acc[2 * fed[j] + 1];
        double f = 3.0 * (ir * ir - ii * -ii);
        loss_r += f * z_line[2 * j] - 0.0 * z_line[2 * j + 1];
        loss_i += f * z_line[2 * j + 1] + 0.0 * z_line[2 * j];
    }
    /* sum(s) * 3.0 + loss, in VA three-phase */
    double sum_r = 0.0, sum_i = 0.0;
    for (Py_ssize_t i = 0; i < n; i++) {
        sum_r += s[2 * i];
        sum_i += s[2 * i + 1];
    }
    double total_r = (sum_r * 3.0 - sum_i * 0.0) + loss_r;
    double total_i = (sum_r * 0.0 + sum_i * 3.0) + loss_i;
    /* slack inflow 3.0 * v[root] * conj(sum of the root branch currents) */
    double in_r = 0.0, in_i = 0.0;
    for (Py_ssize_t j = 0; j < k; j++) {
        in_r += acc[2 * children[j]];
        in_i += acc[2 * children[j] + 1];
    }
    double vr = 3.0 * v[2 * root] - 0.0 * v[2 * root + 1];
    double vi = 3.0 * v[2 * root + 1] + 0.0 * v[2 * root];
    double slack_r = vr * in_r - vi * -in_i, slack_i = vr * -in_i + vi * in_r;
    double balance;
    if (c_abs(slack_r - total_r, slack_i - total_i, &balance) < 0)
        goto done;
    balance = balance / s_base;

    PyObject *v_out = PyTuple_New(n), *currents = PyTuple_New(m);
    if (v_out == NULL || currents == NULL)
        goto fail_out;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *vc = PyComplex_FromDoubles(v[2 * i], v[2 * i + 1]);
        if (vc == NULL)
            goto fail_out;
        PyTuple_SET_ITEM(v_out, i, vc);
    }
    for (Py_ssize_t j = 0; j < m; j++) {
        double amps;
        PyObject *item;
        if (c_abs(acc[2 * fed[j]], acc[2 * fed[j] + 1], &amps) < 0
                || (item = PyFloat_FromDouble(amps)) == NULL)
            goto fail_out;
        PyTuple_SET_ITEM(currents, j, item);
    }
    result = Py_BuildValue("(ddNNddnd)", total_r / 1000.0, total_i / 1000.0,
                           v_out, currents, loss_r / 1000.0, loss_i / 1000.0,
                           sweeps, balance);
    goto done;
fail_out:
    Py_XDECREF(v_out);
    Py_XDECREF(currents);
done:
    PyMem_Free(s);
    Py_DECREF(seq);
    return result;
}

PyDoc_STRVAR(changed_offsets_doc,
"changed_offsets(offsets, kept, owners, stale)\n"
"--\n\n"
"The plants to re-integrate: (indices, their owners).\n\n"
"Plant i is stale when offsets[i] is not the same float as kept[i]: equal,\n"
"and of the same sign when zero.  NaN is never the same.  Sets stale[i]\n"
"(a bytearray) to 1 for a stale plant and 0 for the others, and returns\n"
"the list of stale indices with the list of their owners[i], each owner\n"
"once, in the order of its first stale plant.");

static PyObject *
changed_offsets(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 4 || !PyList_Check(args[0]) || !PyList_Check(args[1])
            || !PyTuple_Check(args[2]) || !PyByteArray_Check(args[3])
            || PyList_GET_SIZE(args[0]) != PyList_GET_SIZE(args[1])
            || PyTuple_GET_SIZE(args[2]) != PyList_GET_SIZE(args[0])
            || PyByteArray_GET_SIZE(args[3]) != PyList_GET_SIZE(args[0])) {
        PyErr_SetString(PyExc_TypeError,
                        "changed_offsets() takes two lists, a tuple and a "
                        "bytearray of one length");
        return NULL;
    }
    PyObject *a = args[0], *b = args[1], *owners = args[2];
    PyObject *changed = PyList_New(0), *stale_owners = PyList_New(0);
    if (changed == NULL || stale_owners == NULL)
        goto fail;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(a) && i < PyList_GET_SIZE(b)
                           && i < PyByteArray_GET_SIZE(args[3]); i++) {
        double x, y;
        if (as_double(PyList_GET_ITEM(a, i), &x)
                || as_double(PyList_GET_ITEM(b, i), &y))
            goto fail;
        char *stale = PyByteArray_AS_STRING(args[3]);
        stale[i] = !(x == y && (x != 0.0 || signbit(x) == signbit(y)));
        if (!stale[i])
            continue;
        PyObject *index = PyLong_FromSsize_t(i);
        if (index == NULL || PyList_Append(changed, index) < 0) {
            Py_XDECREF(index);
            goto fail;
        }
        Py_DECREF(index);
        PyObject *owner = PyTuple_GET_ITEM(owners, i);
        Py_ssize_t k = PyList_GET_SIZE(stale_owners);
        while (k > 0 && PyList_GET_ITEM(stale_owners, k - 1) != owner)
            k--;
        if (k == 0 && PyList_Append(stale_owners, owner) < 0)
            goto fail;
    }
    PyObject *result = PyTuple_Pack(2, changed, stale_owners);
    Py_DECREF(changed);
    Py_DECREF(stale_owners);
    return result;
fail:
    Py_XDECREF(changed);
    Py_XDECREF(stale_owners);
    return NULL;
}

/* Borrow `obj`'s buffer as n C doubles; -1 with an exception set unless it
   is a C-contiguous buffer of doubles of at least one dimension. */
static int
get_doubles(PyObject *obj, Py_buffer *view, Py_ssize_t *n)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->ndim < 1 || view->itemsize != (Py_ssize_t)sizeof(double)
            || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_SetString(PyExc_TypeError,
                        "plant_cost() takes buffers of C doubles");
        return -1;
    }
    *n = view->len / (Py_ssize_t)sizeof(double);
    return 0;
}

PyDoc_STRVAR(plant_cost_doc,
"plant_cost(weights, values, ref)\n"
"--\n\n"
"The sum of weights[i] * |values[i] - ref[i]|, added left to right from\n"
"0.0, over C-contiguous buffers of doubles (float64 arrays) of one length.");

static PyObject *
plant_cost(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "plant_cost() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    Py_buffer views[3];
    Py_ssize_t n[3], got = 0;
    for (; got < 3; got++)
        if (get_doubles(args[got], &views[got], &n[got]) < 0)
            break;
    PyObject *result = NULL;
    if (got == 3 && (n[1] != n[0] || n[2] != n[0]))
        PyErr_SetString(PyExc_ValueError,
                        "plant_cost() takes buffers of one length");
    else if (got == 3) {
        const double *w = views[0].buf, *v = views[1].buf, *r = views[2].buf;
        double sum = 0.0;
        for (Py_ssize_t i = 0; i < n[0]; i++)
            sum += w[i] * fabs(v[i] - r[i]);
        result = PyFloat_FromDouble(sum);
    }
    while (got > 0)
        PyBuffer_Release(&views[--got]);
    return result;
}

static PyMethodDef loops_methods[] = {
    {"storage_substeps", (PyCFunction)(void (*)(void))storage_substeps,
     METH_FASTCALL, storage_doc},
    {"storage_blocks", (PyCFunction)(void (*)(void))storage_blocks,
     METH_FASTCALL, storage_blocks_doc},
    {"heat_pump_substeps", (PyCFunction)(void (*)(void))heat_pump_substeps,
     METH_FASTCALL, heat_pump_doc},
    {"heat_pump_blocks", (PyCFunction)(void (*)(void))heat_pump_blocks,
     METH_FASTCALL, heat_pump_blocks_doc},
    {"power_flow", (PyCFunction)(void (*)(void))power_flow, METH_FASTCALL,
     power_flow_doc},
    {"changed_offsets", (PyCFunction)(void (*)(void))changed_offsets,
     METH_FASTCALL, changed_offsets_doc},
    {"plant_cost", (PyCFunction)(void (*)(void))plant_cost, METH_FASTCALL,
     plant_cost_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef loops_module = {
    PyModuleDef_HEAD_INIT, "_loops",
    "The cell's compiled inner loops.", -1,
    loops_methods
};

PyMODINIT_FUNC
PyInit__loops(void)
{
    return PyModule_Create(&loops_module);
}
