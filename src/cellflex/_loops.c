/* The substep loops of the cell's stateful plants, compiled.
 *
 * storage_substeps is the loop behind BatteryStorage and ElectricVehicle
 * steps (_Storage._integrate in plants.py), heat_pump_substeps the one behind
 * HeatPumpSystem.step.  plants.py describes the models; the Python wrappers
 * there read a plant's parameters and state, call one of these and write the
 * returned state back.
 *
 * Each loop replays Python float arithmetic bit for bit: the same operations
 * in the same order, comparisons instead of min/max with Python's tie rules,
 * Python's float % (fmod plus a sign fix, py_mod) and NaN compares as in
 * Python.  The only exp, the lag factor, is computed in Python and passed
 * in.  Built with -O2 -fno-fast-math -ffp-contract=off (see _build.py):
 * contracting a*b + c into a fused multiply-add would change the last bit.
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

/* Read `arg` as a float into out; -1 with an exception set on failure. */
static int
as_double(PyObject *arg, double *out)
{
    *out = PyFloat_AsDouble(arg);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* Trip j of `trips` (a tuple of (departure, return, energy) tuples). */
static int
read_trip(PyObject *trips, Py_ssize_t j, double *trip)
{
    PyObject *item = PyTuple_GET_ITEM(trips, j);
    if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 3) {
        PyErr_SetString(PyExc_TypeError, "a trip must be a 3-tuple");
        return -1;
    }
    return as_double(PyTuple_GET_ITEM(item, 0), &trip[0])
        || as_double(PyTuple_GET_ITEM(item, 1), &trip[1])
        || as_double(PyTuple_GET_ITEM(item, 2), &trip[2]) ? -1 : 0;
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
    double soc, p, drained, wish_kw = 0.0, offset_kw, lo, hi, dt, base_tod;
    double cap, eta_c, eta_d, lag, away_from = 0.0, away_to = 0.0, trip[3];
    if (nargs != 17) {
        PyErr_Format(PyExc_TypeError,
                     "storage_substeps() takes 17 arguments (%zd given)", nargs);
        return NULL;
    }
    int saturated = PyObject_IsTrue(args[2]);
    if (saturated < 0)
        return NULL;
    Py_ssize_t n = PyLong_AsSsize_t(args[8]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    int has_wish = args[4] != Py_None;
    PyObject *away = args[15], *trips = args[16];
    int has_away = away != Py_None;
    if (as_double(args[0], &soc) || as_double(args[1], &p)
            || as_double(args[3], &drained)
            || (has_wish && as_double(args[4], &wish_kw))
            || as_double(args[5], &offset_kw) || as_double(args[6], &lo)
            || as_double(args[7], &hi) || as_double(args[9], &dt)
            || as_double(args[10], &base_tod) || as_double(args[11], &cap)
            || as_double(args[12], &eta_c) || as_double(args[13], &eta_d)
            || as_double(args[14], &lag))
        return NULL;
    if (has_away) {
        if (!PyTuple_Check(away) || PyTuple_GET_SIZE(away) != 2
                || !PyTuple_Check(trips)) {
            PyErr_SetString(PyExc_TypeError,
                            "away must be a 2-tuple and trips a tuple");
            return NULL;
        }
        if (as_double(PyTuple_GET_ITEM(away, 0), &away_from)
                || as_double(PyTuple_GET_ITEM(away, 1), &away_to))
            return NULL;
    }

    double charge_div = eta_c * dt;
    Py_ssize_t k = 0;
    while (k < n) {
        if (has_away) {
            double tod = py_mod(base_tod + (double)k * dt, DAY_S);
            if (away_from <= tod && tod < away_to) {
                while (k < n && away_from <= tod && tod < away_to) {
                    Py_ssize_t k_pass = k;
                    double drain = 0.0, drop = 0.0;
                    for (Py_ssize_t j = 0; j < PyTuple_GET_SIZE(trips); j++) {
                        if (read_trip(trips, j, trip) < 0)
                            return NULL;
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

    return Py_BuildValue("(ddNd)", soc, p, PyBool_FromLong(saturated),
                         drained);
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
    double t, cop, p_comp, p_elem, heat, ambient, offset_kw, dt, p_el_max;
    double p_element, effectiveness, t_on, t_off, t_min, t_max, t_threshold;
    double storage_kwh_per_k, lag;
    if (nargs != 21) {
        PyErr_Format(PyExc_TypeError,
                     "heat_pump_substeps() takes 21 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    int heating = PyObject_IsTrue(args[1]);
    if (heating < 0)
        return NULL;
    int saturated = PyObject_IsTrue(args[2]);
    if (saturated < 0)
        return NULL;
    Py_ssize_t n = PyLong_AsSsize_t(args[9]);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    if (as_double(args[0], &t) || as_double(args[3], &cop)
            || as_double(args[4], &p_comp) || as_double(args[5], &p_elem)
            || as_double(args[6], &heat) || as_double(args[7], &ambient)
            || as_double(args[8], &offset_kw) || as_double(args[10], &dt)
            || as_double(args[11], &p_el_max)
            || as_double(args[12], &p_element)
            || as_double(args[13], &effectiveness)
            || as_double(args[14], &t_on) || as_double(args[15], &t_off)
            || as_double(args[16], &t_min) || as_double(args[17], &t_max)
            || as_double(args[18], &t_threshold)
            || as_double(args[19], &storage_kwh_per_k)
            || as_double(args[20], &lag))
        return NULL;
    double p_max_total = p_el_max + p_element;
    double c3600 = storage_kwh_per_k * 3600.0;

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

    return Py_BuildValue("(dNNddd)", t, PyBool_FromLong(heating),
                         PyBool_FromLong(saturated), cop, p_comp, p_elem);
}

static PyMethodDef loops_methods[] = {
    {"storage_substeps", (PyCFunction)(void (*)(void))storage_substeps,
     METH_FASTCALL, storage_doc},
    {"heat_pump_substeps", (PyCFunction)(void (*)(void))heat_pump_substeps,
     METH_FASTCALL, heat_pump_doc},
    {NULL, NULL, 0, NULL}
};

static struct PyModuleDef loops_module = {
    PyModuleDef_HEAD_INIT, "_loops",
    "The substep loops of the cell's stateful plants, compiled.", -1,
    loops_methods
};

PyMODINIT_FUNC
PyInit__loops(void)
{
    return PyModule_Create(&loops_module);
}
