/* The cell's compiled inner loops: the plants' substeps, the radial power
 * flow, the twin's changed-offset scan, the objective's plant cost, Basin
 * Hopping's random draws and Nelder-Mead's simplex.
 *
 * store_run is the substep body of batteries and EVs, hp_substep that of
 * heat pumps, each written once and each run by one entry.
 * storage_class_substeps and heat_pump_class_substeps run K plants of one
 * model, each under its own offset, over one shared schedule of intervals
 * (blocks), in step: substep i of every plant before any plant's substep
 * i + 1, so that the CPU overlaps the K independent chains of dependent
 * divisions.  Each plant runs the same operations in the same order as it
 * would alone, and a store still skips its settled substeps on its own.
 * plants.py describes the models.  A plant's step is a call with K = 1 over
 * one interval, under its offset; step_stores and step_heat_pumps, the
 * warmup's class calls, pass a whole class's states under zero offsets.
 * Each passes every plant's constants, packed once as bytes of C doubles,
 * and writes back the states the entry returns.
 *
 * power_flow is the backward/forward sweep behind grid.solve_power_flow, run
 * over the plan GridTopology builds once; changed_offsets is the twin's
 * rule for the plants an evaluation must re-integrate, and
 * plant_cost(weights, values, ref) the dispatch objective's plant term,
 * summed in plant order so that no BLAS kernel picks the order of its
 * additions.  pcg64_fill draws a vector of uniform numbers from a PCG64
 * state that optimizer.PCG64 seeds, the same bits as
 * numpy.random.default_rng with the same seed.  nelder_mead runs
 * optimizer.nelder_mead's simplex search, calling back into Python once per
 * evaluation with the clipped point; it replays numpy's clip, stable sort
 * (NaN last), mean and max, and Python's min, on the same doubles.
 *
 * Each loop replays Python float arithmetic bit for bit: the same operations
 * in the same order, comparisons instead of min/max with Python's tie rules,
 * Python's float % (fmod plus a sign fix, py_mod) and NaN compares as in
 * Python (py_mod skips the fmod call where its result is exact without it).
 * The sweep replays CPython's complex arithmetic the same way: its
 * product, quotient (with the branch on |b.real| >= |b.imag|), sum,
 * difference and abs (hypot, with its inf/NaN rules and overflow error),
 * a real operand taken as (x, 0.0), and sum() added left to right from 0j.
 * The only exp, the lag factor 1 - exp(-(dt / T)), is libm's exp, which
 * math.exp calls too; each entry takes it once per plant and call.  Built
 * with -O2 -fno-fast-math -ffp-contract=off (see _build.py): contracting
 * a*b + c into a fused multiply-add would change the last bit.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define DAY_S 86400.0
/* py_mod and the substep bodies are inlined where they are called: a call
   per substep would cost more than the substep */
#define INLINE static inline __attribute__((always_inline))

/* Python's x % m for floats with m > 0: the remainder takes the sign of m,
   and a zero remainder is +0.0 */
INLINE double
py_mod(double x, double m)
{
    /* within a period of [0, m), fmod would return x exactly, and x - m,
       which is exact there; below it, x, to which m is then added */
    if (0.0 < x && x < m)
        return x;
    if (m <= x && x < m + m)
        return x - m;
    if (-m < x && x < 0.0)
        return x + m;
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

/* The lag's share of the gap closed over a substep of dt seconds */
static double
lag_factor(double dt, double time_constant_s)
{
    return 1.0 - exp(-(dt / time_constant_s));
}

/* A store's state, carried from substep to substep and block to block */
typedef struct {
    double soc, p, drained;
    int saturated;
} store_state;

/* A store's constants as its plant packs them: rating bounds, parameters
   and trip window (first departure, last return), followed in the same
   buffer by the (departure, return, energy) triple of each trip */
typedef struct {
    double lo, hi, cap, eta_c, eta_d, time_constant_s, away_from, away_to;
} store_consts;

/* What a store holds over a call: its offset, substep and lag factor, and
   its constants and n_trips trips, read in place */
typedef struct {
    double offset_kw, dt, lag;
    const store_consts *c;
    Py_ssize_t n_trips;
} store_params;

/* The storage substep body: advance `st` from substep k of an interval of n
   substeps, the first at time of day base_tod, toward wish_kw (with
   has_wish) or, without, toward charging until full.  It runs connected
   substeps while k < stop; a trip window runs to its end and a settled
   store skips ahead, either of which may carry it past stop.  Returns the
   substep it stopped at, n once nothing is left to run. */
INLINE Py_ssize_t
store_run(store_state *st, const store_params *sp, Py_ssize_t k,
          Py_ssize_t stop, Py_ssize_t n, int has_wish, double wish_kw,
          double base_tod)
{
    double soc = st->soc, p = st->p, drained = st->drained;
    int saturated = st->saturated;
    const double offset_kw = sp->offset_kw, dt = sp->dt, lag = sp->lag;
    const double lo = sp->c->lo, hi = sp->c->hi, cap = sp->c->cap;
    const double eta_c = sp->c->eta_c, eta_d = sp->c->eta_d;
    const double away_from = sp->c->away_from, away_to = sp->c->away_to;
    const double *trips = (const double *)(sp->c + 1);
    const int has_away = sp->n_trips > 0;   /* no trip: never away */

    double charge_div = eta_c * dt;
    while (k < stop) {
        if (has_away) {
            double tod = py_mod(base_tod + (double)k * dt, DAY_S);
            if (away_from <= tod && tod < away_to) {
                while (k < n && away_from <= tod && tod < away_to) {
                    Py_ssize_t k_pass = k;
                    double drain = 0.0, drop = 0.0;
                    for (Py_ssize_t j = 0; j < sp->n_trips; j++) {
                        const double *trip = trips + 3 * j;
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
            if (!has_away) {
                k = n;
                break;
            }
            double tod = py_mod(base_tod + (double)k * dt, DAY_S);
            double tod_end = py_mod(base_tod + (double)(n - 1) * dt, DAY_S);
            if ((double)(n - k) * dt < 43200.0 && tod <= tod_end
                    && (tod_end < away_from || away_to <= tod)) {
                k = n;
                break;
            }
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
    return k;
}

/* The bytes `consts` of `fname`, read in place: `fixed` bytes of constants
   and, with a nonzero `record`, a whole number of `record`-byte records
   after them, their count in *n_records.  NULL with TypeError otherwise,
   before any byte is read. */
static const void *
consts_at(PyObject *consts, Py_ssize_t fixed, Py_ssize_t record,
          Py_ssize_t *n_records, const char *fname)
{
    if (PyBytes_Check(consts)) {
        Py_ssize_t tail = PyBytes_GET_SIZE(consts) - fixed;
        if (tail >= 0 && (record ? tail % record == 0 : tail == 0)) {
            if (record)
                *n_records = tail / record;
            return PyBytes_AS_STRING(consts);
        }
    }
    PyErr_Format(PyExc_TypeError,
                 "%s() takes its constants as bytes of C doubles, %zd bytes "
                 "and then whole %zd-byte records", fname, fixed, record);
    return NULL;
}

/* A heat pump's state, carried from substep to substep and block to block:
   tank temperature, thermostat, saturation, COP and the realized compressor
   (the lag's state) and element powers */
typedef struct {
    double t, cop, p_comp, p_elem;
    int heating, saturated;
} hp_state;

/* A heat pump's constants as its plant packs them */
typedef struct {
    double p_el_max, p_element, effectiveness, t_on, t_off, t_min, t_max;
    double t_threshold, storage_kwh_per_k, time_constant_s;
} hp_consts;

/* What a heat pump holds over a call: its offset, substep and lag factor,
   its constants, read in place, and two sums of them */
typedef struct {
    double offset_kw, dt, lag, p_max_total, c3600;
    const hp_consts *c;
} hp_params;

/* `hp` for the constants `c` under offset_kw on substeps of dt seconds */
static void
hp_params_set(hp_params *hp, const hp_consts *c, double offset_kw, double dt)
{
    hp->offset_kw = offset_kw;
    hp->dt = dt;
    hp->lag = lag_factor(dt, c->time_constant_s);
    hp->p_max_total = c->p_el_max + c->p_element;
    hp->c3600 = c->storage_kwh_per_k * 3600.0;
    hp->c = c;
}

/* The heat-pump substep body: advance `st` one substep under a held heat
   demand and ambient temperature */
INLINE void
hp_substep(hp_state *st, const hp_params *hp, double heat, double ambient)
{
    double t = st->t, cop, p_comp = st->p_comp, p_elem;
    int heating = st->heating, saturated;
    const double offset_kw = hp->offset_kw, dt = hp->dt, lag = hp->lag;
    const double p_el_max = hp->c->p_el_max, p_element = hp->c->p_element;
    const double effectiveness = hp->c->effectiveness;
    const double t_on = hp->c->t_on, t_off = hp->c->t_off;
    const double t_min = hp->c->t_min, t_max = hp->c->t_max;
    const double t_threshold = hp->c->t_threshold;
    const double p_max_total = hp->p_max_total, c3600 = hp->c3600;

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

    st->t = t_new;
    st->cop = cop;
    st->p_comp = p_comp;
    st->p_elem = p_elem;
    st->heating = heating;
    st->saturated = saturated;
}

/* A class entry's arguments (states, consts, offsets, inputs, counts,
   shared, dt): tuples of `width` states per plant, of the K plants'
   constants and offsets, of K rows of B inputs, of B counts and of B shared
   values, one per interval, where `optional` inputs and shared may each be
   None (NULL here).  Only the tuples and their lengths are checked; the
   entries read the items as they run and build the new states only once
   every interval has run, so a bad item changes nothing. */
typedef struct {
    PyObject *states, *consts, *offsets, *inputs, *counts, *shared;
    Py_ssize_t k, b;
    double dt;
} class_args;

/* Read `args` into `a`; -1 with an exception set on failure */
static int
class_args_read(class_args *a, PyObject *const *args, Py_ssize_t nargs,
                Py_ssize_t width, int optional, const char *fname)
{
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError, "%s() takes 7 arguments (%zd given)",
                     fname, nargs);
        return -1;
    }
    a->states = args[0];
    a->consts = args[1];
    a->offsets = args[2];
    a->inputs = optional && args[3] == Py_None ? NULL : args[3];
    a->counts = args[4];
    a->shared = optional && args[5] == Py_None ? NULL : args[5];
    if (!PyTuple_Check(a->states) || !PyTuple_Check(a->consts)
            || !PyTuple_Check(a->offsets) || !PyTuple_Check(a->counts)
            || (a->inputs && !PyTuple_Check(a->inputs))
            || (a->shared && !PyTuple_Check(a->shared))) {
        PyErr_Format(PyExc_TypeError, "%s() takes tuples", fname);
        return -1;
    }
    a->k = PyTuple_GET_SIZE(a->consts);
    a->b = PyTuple_GET_SIZE(a->counts);
    if (PyTuple_GET_SIZE(a->states) != width * a->k
            || PyTuple_GET_SIZE(a->offsets) != a->k
            || (a->inputs && PyTuple_GET_SIZE(a->inputs) != a->k * a->b)
            || (a->shared && PyTuple_GET_SIZE(a->shared) != a->b)) {
        PyErr_Format(PyExc_ValueError, "%s() takes %zd states and an offset "
                     "per plant, an input per plant and interval and a shared "
                     "value per interval", fname, width);
        return -1;
    }
    return as_double(args[6], &a->dt);
}

/* Interval j's count and, unless `values` is NULL, its value into *x;
   -1 with an exception set on failure */
static int
interval_at(const class_args *a, PyObject *values, Py_ssize_t j,
            Py_ssize_t *n, double *x)
{
    *n = PyLong_AsSsize_t(PyTuple_GET_ITEM(a->counts, j));
    if (*n == -1 && PyErr_Occurred())
        return -1;
    return values ? as_double(PyTuple_GET_ITEM(values, j), x) : 0;
}

/* Set item i of the new tuple `t` to `item`, a new reference; -1 if it is
   NULL (with an exception set) */
static int
put(PyObject *t, Py_ssize_t i, PyObject *item)
{
    if (item == NULL)
        return -1;
    PyTuple_SET_ITEM(t, i, item);
    return 0;
}

PyDoc_STRVAR(storage_class_doc,
"storage_class_substeps(states, consts, offsets, wishes, counts, tods, dt)\n"
"--\n\n"
"Advance K stores, store k under offset offsets[k], over one schedule of B\n"
"intervals, in step: each store's substep i runs before any store's\n"
"substep i + 1.  Returns the new states.\n\n"
"`states` holds (soc, p, saturated, drained) per store, all tuples.\n"
"Interval j runs counts[j] substeps of dt seconds, the first at time of\n"
"day tods[j] (0.0 with tods None), toward store k's wish wishes[k * B + j]\n"
"or, with wishes None, toward charging until full (EVs).  Each interval\n"
"starts from the state the one before it ends in.  consts[k] is bytes of C\n"
"doubles: lo, hi (the rating bounds), capacity_kwh, eta_charge,\n"
"eta_discharge, time_constant_s and the trip window (first departure, last\n"
"return) in s of day, then a (departure, return, energy) triple per trip.\n"
"A store with no trip never leaves.  Each store ends as it would alone\n"
"(K = 1), bit for bit, skipping as it would skip.");

static PyObject *
storage_class_substeps(PyObject *module, PyObject *const *args,
                       Py_ssize_t nargs)
{
    class_args a;
    if (class_args_read(&a, args, nargs, 4, 1, "storage_class_substeps") < 0)
        return NULL;
    const Py_ssize_t K = a.k, B = a.b;
    PyObject *result = NULL;
    /* per store: its state, parameters and wish, the substep it runs next
       (when asleep); the stores awake at the current substep and those
       asleep */
    store_state *st = PyMem_Malloc((K ? K : 1) * (sizeof(store_state)
                                   + sizeof(store_params)
                                   + sizeof(double)
                                   + 3 * sizeof(Py_ssize_t)));
    if (st == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    store_params *sp = (store_params *)(st + K);
    double *wish = (double *)(sp + K);
    Py_ssize_t *next = (Py_ssize_t *)(wish + K), *awake = next + K;
    Py_ssize_t *asleep = awake + K;
    for (Py_ssize_t p = 0; p < K; p++) {
        PyObject *x = a.states;
        if ((sp[p].c = consts_at(PyTuple_GET_ITEM(a.consts, p),
                                 sizeof(store_consts), 3 * sizeof(double),
                                 &sp[p].n_trips,
                                 "storage_class_substeps")) == NULL
                || as_double(PyTuple_GET_ITEM(x, 4 * p), &st[p].soc)
                || as_double(PyTuple_GET_ITEM(x, 4 * p + 1), &st[p].p)
                || (st[p].saturated
                    = PyObject_IsTrue(PyTuple_GET_ITEM(x, 4 * p + 2))) < 0
                || as_double(PyTuple_GET_ITEM(x, 4 * p + 3), &st[p].drained)
                || as_double(PyTuple_GET_ITEM(a.offsets, p), &sp[p].offset_kw))
            goto done;
        sp[p].dt = a.dt;
        sp[p].lag = lag_factor(a.dt, sp[p].c->time_constant_s);
    }
    const int has_wish = a.inputs != NULL;
    for (Py_ssize_t j = 0; j < B; j++) {
        Py_ssize_t n;
        double tod = 0.0;
        if (interval_at(&a, a.shared, j, &n, &tod) < 0)
            goto done;
        for (Py_ssize_t p = 0; has_wish && p < K; p++)
            if (as_double(PyTuple_GET_ITEM(a.inputs, p * B + j), &wish[p]))
                goto done;
        Py_ssize_t n_awake = K, n_asleep = 0, wake = n;
        for (Py_ssize_t p = 0; p < K; p++)
            awake[p] = p;
        for (Py_ssize_t i = 0; i < n;) {
            /* the stores awake at substep i run one substep, or, one
               alone, on until the next sleeper wakes; one that skips past
               that sleeps until the substep it skips to, and one that is
               done drops out */
            const Py_ssize_t stop = n_awake == 1 ? wake : i + 1;
            Py_ssize_t m = 0;
            for (Py_ssize_t q = 0; q < n_awake; q++) {
                Py_ssize_t p = awake[q];
                Py_ssize_t k = store_run(&st[p], &sp[p], i, stop, n, has_wish,
                                         has_wish ? wish[p] : 0.0, tod);
                if (k == stop && k < n) {
                    awake[m++] = p;
                }
                else if (k < n) {
                    next[p] = k;
                    asleep[n_asleep++] = p;
                    if (k < wake)
                        wake = k;
                }
            }
            n_awake = m;
            i = n_awake ? stop : wake;
            if (i == wake && i < n) {
                m = 0;
                wake = n;
                for (Py_ssize_t q = 0; q < n_asleep; q++) {
                    Py_ssize_t p = asleep[q];
                    if (next[p] == i)
                        awake[n_awake++] = p;
                    else {
                        asleep[m++] = p;
                        if (next[p] < wake)
                            wake = next[p];
                    }
                }
                n_asleep = m;
            }
        }
    }
    result = PyTuple_New(4 * K);
    for (Py_ssize_t p = 0; result != NULL && p < K; p++)
        if (put(result, 4 * p, PyFloat_FromDouble(st[p].soc))
                || put(result, 4 * p + 1, PyFloat_FromDouble(st[p].p))
                || put(result, 4 * p + 2, PyBool_FromLong(st[p].saturated))
                || put(result, 4 * p + 3, PyFloat_FromDouble(st[p].drained)))
            Py_CLEAR(result);
done:
    PyMem_Free(st);
    return result;
}

PyDoc_STRVAR(heat_pump_class_doc,
"heat_pump_class_substeps(states, consts, offsets, demands, counts,\n"
"                         ambients, dt)\n"
"--\n\n"
"Advance K heat pumps, heat pump k under offset offsets[k], over one\n"
"schedule of B intervals, in step: each heat pump's substep i runs before\n"
"any one's substep i + 1.  Returns the new states.\n\n"
"`states` holds (t, heating, saturated, cop, p_comp, p_elem) per heat\n"
"pump, all tuples.  Interval j runs counts[j] substeps of dt seconds at\n"
"ambient temperature ambients[j], heat pump k under heat demand\n"
"demands[k * B + j].  Each interval starts from the state the one before\n"
"it ends in.  consts[k] is bytes of ten C doubles: p_el_max_kw,\n"
"p_element_kw, effectiveness, t_on_c, t_off_c, t_min_c, t_max_c,\n"
"t_element_threshold_c, storage_kwh_per_k and time_constant_s.  Each heat\n"
"pump ends as it would alone (K = 1), bit for bit.");

static PyObject *
heat_pump_class_substeps(PyObject *module, PyObject *const *args,
                         Py_ssize_t nargs)
{
    class_args a;
    if (class_args_read(&a, args, nargs, 6, 0, "heat_pump_class_substeps") < 0)
        return NULL;
    const Py_ssize_t K = a.k, B = a.b;
    PyObject *result = NULL;
    /* per heat pump: its state, parameters and heat demand */
    hp_state *st = PyMem_Malloc((K ? K : 1) * (sizeof(hp_state)
                                + sizeof(hp_params) + sizeof(double)));
    if (st == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    hp_params *hp = (hp_params *)(st + K);
    double *heat = (double *)(hp + K);
    for (Py_ssize_t p = 0; p < K; p++) {
        PyObject *x = a.states;
        double offset_kw;
        const hp_consts *c = consts_at(PyTuple_GET_ITEM(a.consts, p),
                                       sizeof(hp_consts), 0, NULL,
                                       "heat_pump_class_substeps");
        if (c == NULL || as_double(PyTuple_GET_ITEM(x, 6 * p), &st[p].t)
                || (st[p].heating
                    = PyObject_IsTrue(PyTuple_GET_ITEM(x, 6 * p + 1))) < 0
                || (st[p].saturated
                    = PyObject_IsTrue(PyTuple_GET_ITEM(x, 6 * p + 2))) < 0
                || as_double(PyTuple_GET_ITEM(x, 6 * p + 3), &st[p].cop)
                || as_double(PyTuple_GET_ITEM(x, 6 * p + 4), &st[p].p_comp)
                || as_double(PyTuple_GET_ITEM(x, 6 * p + 5), &st[p].p_elem)
                || as_double(PyTuple_GET_ITEM(a.offsets, p), &offset_kw))
            goto done;
        hp_params_set(&hp[p], c, offset_kw, a.dt);
    }
    for (Py_ssize_t j = 0; j < B; j++) {
        Py_ssize_t n;
        double ambient;
        if (interval_at(&a, a.shared, j, &n, &ambient) < 0)
            goto done;
        for (Py_ssize_t p = 0; p < K; p++)
            if (as_double(PyTuple_GET_ITEM(a.inputs, p * B + j), &heat[p]))
                goto done;
        for (Py_ssize_t i = 0; i < n; i++)
            for (Py_ssize_t p = 0; p < K; p++)
                hp_substep(&st[p], &hp[p], heat[p], ambient);
    }
    result = PyTuple_New(6 * K);
    for (Py_ssize_t p = 0; result != NULL && p < K; p++)
        if (put(result, 6 * p, PyFloat_FromDouble(st[p].t))
                || put(result, 6 * p + 1, PyBool_FromLong(st[p].heating))
                || put(result, 6 * p + 2, PyBool_FromLong(st[p].saturated))
                || put(result, 6 * p + 3, PyFloat_FromDouble(st[p].cop))
                || put(result, 6 * p + 4, PyFloat_FromDouble(st[p].p_comp))
                || put(result, 6 * p + 5, PyFloat_FromDouble(st[p].p_elem)))
            Py_CLEAR(result);
done:
    PyMem_Free(st);
    return result;
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

/* Borrow `obj`'s buffer as n C doubles, requesting it with the extra
   buffer flags `flags` (PyBUF_WRITABLE to write); -1 with an exception set,
   naming the function `fname`, unless it is a C-contiguous buffer of
   doubles of at least one dimension. */
static int
get_doubles(PyObject *obj, Py_buffer *view, Py_ssize_t *n, int flags,
            const char *fname)
{
    if (PyObject_GetBuffer(obj, view,
                           PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | flags) < 0)
        return -1;
    if (view->ndim < 1 || view->itemsize != (Py_ssize_t)sizeof(double)
            || view->format == NULL || strcmp(view->format, "d") != 0) {
        PyBuffer_Release(view);
        PyErr_Format(PyExc_TypeError, "%s() takes buffers of C doubles",
                     fname);
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
        if (get_doubles(args[got], &views[got], &n[got], 0,
                        "plant_cost") < 0)
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

/* PCG64 (O'Neill 2014, numpy's PCG64): a 128-bit LCG advanced before each
   draw, whose new state gives the 64-bit output by XSL-RR, the high and low
   words xor-ed and rotated right by the state's top 6 bits */
#define PCG64_MULT ((((unsigned __int128)2549297995355413924ULL) << 64) \
                    | 4865540595714422341ULL)

PyDoc_STRVAR(pcg64_fill_doc,
"pcg64_fill(state, out, low, high)\n"
"--\n\n"
"Fill out, a writable C-contiguous buffer of doubles, with low + (high -\n"
"low) * u for the next PCG64 draws u in order, each u the output's top 53\n"
"bits times 2**-53: numpy's Generator.uniform from the same state.  state\n"
"is a bytearray of four native uint64, the LCG state's high and low words\n"
"then the increment's, advanced in place.  OverflowError when high - low\n"
"is not finite, before any draw.");

static PyObject *
pcg64_fill(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double low, high;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError,
                     "pcg64_fill() takes 4 arguments (%zd given)", nargs);
        return NULL;
    }
    if (as_double(args[2], &low) || as_double(args[3], &high))
        return NULL;
    double range = high - low;
    if (!isfinite(range)) {
        PyErr_SetString(PyExc_OverflowError, "Range exceeds valid bounds");
        return NULL;
    }
    Py_buffer view;
    Py_ssize_t n;
    if (get_doubles(args[1], &view, &n, PyBUF_WRITABLE, "pcg64_fill") < 0)
        return NULL;
    uint64_t words[4];
    if (!PyByteArray_Check(args[0])
            || PyByteArray_GET_SIZE(args[0]) != (Py_ssize_t)sizeof words) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError,
                        "pcg64_fill() takes a state bytearray of 32 bytes");
        return NULL;
    }
    memcpy(words, PyByteArray_AS_STRING(args[0]), sizeof words);
    unsigned __int128 state = ((unsigned __int128)words[0] << 64) | words[1];
    unsigned __int128 inc = ((unsigned __int128)words[2] << 64) | words[3];
    double *out = view.buf;
    for (Py_ssize_t i = 0; i < n; i++) {
        state = state * PCG64_MULT + inc;
        uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
        unsigned rot = (unsigned)(state >> 122);
        x = (x >> rot) | (x << ((64 - rot) & 63));
        out[i] = low + range * ((double)(x >> 11) * (1.0 / 9007199254740992.0));
    }
    words[0] = (uint64_t)(state >> 64);
    words[1] = (uint64_t)state;
    memcpy(PyByteArray_AS_STRING(args[0]), words, sizeof words);
    PyBuffer_Release(&view);
    Py_RETURN_NONE;
}

/* numpy's clip of a float: max(x, lo), then min(that, hi), where each
   keeps a NaN first operand and otherwise takes the second operand unless
   the first compares greater (smaller) */
INLINE double
np_clip(double x, double lo, double hi)
{
    if (!isnan(x) && !(x > lo))
        x = lo;
    if (!isnan(x) && !(x < hi))
        x = hi;
    return x;
}

/* numpy's float sort order, which puts NaN last: a before b */
#define SORTS_BEFORE(a, b) ((a) < (b) || ((b) != (b) && (a) == (a)))

/* One Nelder-Mead search: its objective, box, budget and best point */
typedef struct {
    PyObject *evaluate, *best;
    const double *box;          /* (lo, hi) per coordinate */
    Py_ssize_t d, n_evals, maxfev;
    double f_best;
    int feasible_best;
} nm_search;

/* Evaluate the vertex v clipped into the box, its objective into *fx: 0,
   1 once the budget is spent (nothing evaluated), -1 with an exception
   set.  The clipped point goes to `evaluate` as a new bytearray of d
   doubles, kept as the best point if its objective is the lowest yet. */
static int
nm_eval(nm_search *s, const double *v, double *fx)
{
    if (s->n_evals >= s->maxfev)
        return 1;
    PyObject *point = PyByteArray_FromStringAndSize(
        NULL, s->d * (Py_ssize_t)sizeof(double));
    if (point == NULL)
        return -1;
    double *x = (double *)PyByteArray_AS_STRING(point);
    for (Py_ssize_t j = 0; j < s->d; j++)
        x[j] = np_clip(v[j], s->box[2 * j], s->box[2 * j + 1]);
    PyObject *r = PyObject_CallOneArg(s->evaluate, point);
    int feasible = -1;
    if (r != NULL && (!PyTuple_Check(r) || PyTuple_GET_SIZE(r) != 2))
        PyErr_SetString(PyExc_TypeError,
                        "nelder_mead() needs (of, feasible) from evaluate");
    else if (r != NULL && !as_double(PyTuple_GET_ITEM(r, 0), fx))
        feasible = PyObject_IsTrue(PyTuple_GET_ITEM(r, 1));
    Py_XDECREF(r);
    if (feasible < 0) {
        Py_DECREF(point);
        return -1;
    }
    s->n_evals += 1;
    if (*fx < s->f_best) {
        Py_XSETREF(s->best, point);
        s->f_best = *fx;
        s->feasible_best = feasible;
    }
    else {
        Py_DECREF(point);
    }
    return 0;
}

/* Put vertex v, of objective fv, in place of the row `row` */
static void
nm_replace(double *row, double *f_row, const double *v, double fv,
           Py_ssize_t d)
{
    memcpy(row, v, d * sizeof(double));
    *f_row = fv;
}

PyDoc_STRVAR(nelder_mead_doc,
"nelder_mead(evaluate, x0, box, scale, fatol, xatol, maxfev)\n"
"--\n\n"
"Nelder-Mead's downhill simplex (Nelder & Mead 1965) from x0, a buffer of\n"
"d C doubles, with the box `box`, a buffer of (lo, hi) per coordinate.\n"
"Returns (best, f_best, n_evals, feasible_best).\n\n"
"The first simplex displaces each coordinate of x0 by `scale`.  Each\n"
"vertex is clipped into the box as numpy's clip does and handed to\n"
"evaluate as a new bytearray of d doubles; evaluate returns (of,\n"
"feasible).  `best` is the bytearray of the first strict minimum, None if\n"
"no objective compared below inf, and feasible_best its flag.  The search\n"
"ends at convergence (the objectives within fatol and every vertex within\n"
"xatol of the best in every coordinate) or at the evaluation past maxfev,\n"
"which is not made.  Each step makes the numpy search's float operations\n"
"in its order (tests/optimizer_reference.py), bit for bit: a stable sort\n"
"with NaN last, the centroid of the d best vertices summed from +0.0 and\n"
"divided by d, the reflection, expansion, contractions and shrink with\n"
"coefficients 1, 2, 1/2 and 1/2, and Python's min for the contraction's\n"
"test.");

static PyObject *
nelder_mead(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    double scale, fatol, xatol;
    nm_search s = {.best = NULL, .n_evals = 0, .f_best = INFINITY,
                   .feasible_best = 0};
    if (nargs != 7) {
        PyErr_Format(PyExc_TypeError,
                     "nelder_mead() takes 7 arguments (%zd given)", nargs);
        return NULL;
    }
    s.evaluate = args[0];
    /* a budget beyond Py_ssize_t is no budget: it is clamped */
    s.maxfev = PyNumber_AsSsize_t(args[6], NULL);
    if ((s.maxfev == -1 && PyErr_Occurred()) || as_double(args[3], &scale)
            || as_double(args[4], &fatol) || as_double(args[5], &xatol))
        return NULL;
    Py_buffer views[2];
    Py_ssize_t n[2];
    if (get_doubles(args[1], &views[0], &n[0], 0, "nelder_mead") < 0)
        return NULL;
    if (get_doubles(args[2], &views[1], &n[1], 0, "nelder_mead") < 0) {
        PyBuffer_Release(&views[0]);
        return NULL;
    }
    const Py_ssize_t d = s.d = n[0];
    PyObject *result = NULL;
    /* the simplex, a row per vertex, each row's objective, the rows in
       sorted order, and the centroid and three trial points */
    double *simplex = NULL;
    if (d < 1 || n[1] != 2 * d) {
        PyErr_SetString(PyExc_ValueError,
                        "nelder_mead() takes d >= 1 doubles and d (lo, hi) "
                        "pairs");
        goto done;
    }
    simplex = PyMem_Malloc(((d + 1) * (d + 1) + 4 * d) * sizeof(double)
                           + (d + 1) * sizeof(Py_ssize_t));
    if (simplex == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    double *fv = simplex + (d + 1) * d, *c = fv + d + 1, *xr = c + d;
    double *xe = xr + d, *xc = xe + d;
    Py_ssize_t *order = (Py_ssize_t *)(xc + d);
    const double *x0 = views[0].buf;
    s.box = views[1].buf;
    int rc;
    double fr, fe, fc;

    /* the first simplex: x0, then x0 displaced along each coordinate */
    for (Py_ssize_t i = 0; i <= d; i++) {
        double *row = simplex + i * d;
        memcpy(row, x0, d * sizeof(double));
        if (i > 0)
            row[i - 1] += scale;
        order[i] = i;
        if ((rc = nm_eval(&s, row, &fv[i])) != 0)
            goto spent;
    }
    for (;;) {
        /* stable insertion sort of the rows by objective */
        for (Py_ssize_t k = 1; k <= d; k++) {
            Py_ssize_t r = order[k], m = k;
            while (m > 0 && SORTS_BEFORE(fv[r], fv[order[m - 1]])) {
                order[m] = order[m - 1];
                m--;
            }
            order[m] = r;
        }
        double *best = simplex + order[0] * d, *worst = simplex + order[d] * d;
        double *f_worst = &fv[order[d]];
        if (*f_worst - fv[order[0]] <= fatol) {
            int close = 1;
            for (Py_ssize_t k = 1; close && k <= d; k++)
                for (Py_ssize_t j = 0; close && j < d; j++)
                    close = fabs(simplex[order[k] * d + j] - best[j]) <= xatol;
            if (close)
                break;
        }
        for (Py_ssize_t j = 0; j < d; j++)
            c[j] = 0.0;
        for (Py_ssize_t k = 0; k < d; k++)
            for (Py_ssize_t j = 0; j < d; j++)
                c[j] += simplex[order[k] * d + j];
        for (Py_ssize_t j = 0; j < d; j++) {
            c[j] = c[j] / (double)d;
            xr[j] = c[j] + 1.0 * (c[j] - worst[j]);
        }
        if ((rc = nm_eval(&s, xr, &fr)) != 0)
            goto spent;
        if (fr < fv[order[0]]) {
            for (Py_ssize_t j = 0; j < d; j++)
                xe[j] = c[j] + 2.0 * (xr[j] - c[j]);
            if ((rc = nm_eval(&s, xe, &fe)) != 0)
                goto spent;
            if (fe < fr)
                nm_replace(worst, f_worst, xe, fe, d);
            else
                nm_replace(worst, f_worst, xr, fr, d);
        }
        else if (fr < fv[order[d - 1]]) {
            nm_replace(worst, f_worst, xr, fr, d);
        }
        else {
            /* contract outside, toward xr, or inside, toward the worst */
            const int outside = fr < *f_worst;
            for (Py_ssize_t j = 0; j < d; j++)
                xc[j] = outside ? c[j] + 0.5 * (xr[j] - c[j])
                                : c[j] - 0.5 * (c[j] - worst[j]);
            if ((rc = nm_eval(&s, xc, &fc)) != 0)
                goto spent;
            /* min(fr, f_worst), ties to fr */
            if (fc < (*f_worst < fr ? *f_worst : fr)) {
                nm_replace(worst, f_worst, xc, fc, d);
            }
            else {
                /* shrink toward the best vertex */
                for (Py_ssize_t k = 1; k <= d; k++) {
                    double *row = simplex + order[k] * d;
                    for (Py_ssize_t j = 0; j < d; j++)
                        row[j] = best[j] + 0.5 * (row[j] - best[j]);
                    if ((rc = nm_eval(&s, row, &fv[order[k]])) != 0)
                        goto spent;
                }
            }
        }
    }
    rc = 0;
spent:
    if (rc >= 0)
        result = Py_BuildValue("(OdnO)", s.best ? s.best : Py_None, s.f_best,
                               s.n_evals,
                               s.feasible_best ? Py_True : Py_False);
done:
    Py_XDECREF(s.best);
    PyMem_Free(simplex);
    PyBuffer_Release(&views[0]);
    PyBuffer_Release(&views[1]);
    return result;
}

static PyMethodDef loops_methods[] = {
    {"storage_class_substeps",
     (PyCFunction)(void (*)(void))storage_class_substeps, METH_FASTCALL,
     storage_class_doc},
    {"heat_pump_class_substeps",
     (PyCFunction)(void (*)(void))heat_pump_class_substeps, METH_FASTCALL,
     heat_pump_class_doc},
    {"power_flow", (PyCFunction)(void (*)(void))power_flow, METH_FASTCALL,
     power_flow_doc},
    {"changed_offsets", (PyCFunction)(void (*)(void))changed_offsets,
     METH_FASTCALL, changed_offsets_doc},
    {"plant_cost", (PyCFunction)(void (*)(void))plant_cost, METH_FASTCALL,
     plant_cost_doc},
    {"pcg64_fill", (PyCFunction)(void (*)(void))pcg64_fill, METH_FASTCALL,
     pcg64_fill_doc},
    {"nelder_mead", (PyCFunction)(void (*)(void))nelder_mead, METH_FASTCALL,
     nelder_mead_doc},
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
