/* The compiled scalar record buffer behind `Estimator.update`, a CPython
   extension type; `f1sketch.records` builds, loads and checks it.

   `push(i, v)` keeps a record whose item and delta are both exact ints
   within int64 in two int64 arrays, after refusing an item outside [1, n]
   with the message of the Python path. Any other record (a bool, a float,
   a numpy integer, an int past int64, keywords, another argument count) is
   handed to the instance's `_object_push`, the Python path, unchanged.
   `_take_exact()` returns the kept records as one bytes object, every
   item then every delta in native int64, or None if there are none, and
   empties the buffer.
   `_domain` is n. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    PyObject_HEAD
    long long n;
    int64_t *items, *deltas;
    Py_ssize_t size, cap;
} Records;

static PyObject *object_push; /* the interned name "_object_push" */

static int grow(Records *self)
{
    Py_ssize_t cap = self->cap ? 2 * self->cap : 16;
    int64_t *items, *deltas;
    if (cap > PY_SSIZE_T_MAX / (Py_ssize_t)sizeof(int64_t)) {
        PyErr_NoMemory();
        return -1;
    }
    items = PyMem_Realloc(self->items, cap * sizeof(int64_t));
    if (items == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->items = items;
    deltas = PyMem_Realloc(self->deltas, cap * sizeof(int64_t));
    if (deltas == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->deltas = deltas;
    self->cap = cap;
    return 0;
}

static PyObject *push(Records *self, PyObject *const *args, Py_ssize_t nargs,
                      PyObject *kwnames)
{
    if (nargs == 2 && kwnames == NULL && PyLong_CheckExact(args[0])
            && PyLong_CheckExact(args[1])) {
        int over_i, over_v;
        long long i = PyLong_AsLongLongAndOverflow(args[0], &over_i);
        long long v = PyLong_AsLongLongAndOverflow(args[1], &over_v);
        if (!over_i && !over_v) {
            if (i < 1 || i > self->n)
                return PyErr_Format(PyExc_ValueError, "item %lld outside domain [1, %lld]",
                                    i, self->n);
            if (self->size == self->cap && grow(self) < 0)
                return NULL;
            self->items[self->size] = i;
            self->deltas[self->size] = v;
            self->size++;
            Py_RETURN_NONE;
        }
    }
    PyObject *method = PyObject_GetAttr((PyObject *)self, object_push);
    if (method == NULL)
        return NULL;
    PyObject *result = PyObject_Vectorcall(method, args, nargs, kwnames);
    Py_DECREF(method);
    return result;
}

static PyObject *take_exact(Records *self, PyObject *Py_UNUSED(ignored))
{
    if (self->size == 0)
        Py_RETURN_NONE;
    Py_ssize_t bytes = self->size * (Py_ssize_t)sizeof(int64_t);
    PyObject *out = PyBytes_FromStringAndSize(NULL, 2 * bytes);
    if (out == NULL)
        return NULL;
    memcpy(PyBytes_AS_STRING(out), self->items, bytes);
    memcpy(PyBytes_AS_STRING(out) + bytes, self->deltas, bytes);
    self->size = 0;
    return out;
}

static void dealloc(Records *self)
{
    PyMem_Free(self->items);
    PyMem_Free(self->deltas);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef methods[] = {
    {"push", (PyCFunction)(void (*)(void))push, METH_FASTCALL | METH_KEYWORDS,
     "push($self, i, v, /)\n--\n\n"
     "Apply one turnstile record. ValueError at the call for an item\n"
     "outside [1, n]; an item or delta that is not an integer within\n"
     "int64 is refused at the next flush, which then drops its records."},
    {"_take_exact", (PyCFunction)take_exact, METH_NOARGS,
     "the exact-int records as bytes, items then deltas, or None; empties the buffer"},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef members[] = {
    {"_domain", T_LONGLONG, offsetof(Records, n), 0, "the domain size n"},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject RecordsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "f1sketch._records.Records",
    .tp_basicsize = sizeof(Records),
    .tp_dealloc = (destructor)dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE,
    .tp_doc = "Scalar stream records kept in int64 arrays",
    .tp_methods = methods,
    .tp_members = members,
    .tp_new = PyType_GenericNew,
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_records", NULL, -1, NULL, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__records(void)
{
    PyObject *m;
    if (object_push == NULL && (object_push = PyUnicode_InternFromString("_object_push")) == NULL)
        return NULL;
    if (PyType_Ready(&RecordsType) < 0 || (m = PyModule_Create(&module)) == NULL)
        return NULL;
    Py_INCREF(&RecordsType);
    if (PyModule_AddObject(m, "Records", (PyObject *)&RecordsType) < 0) {
        Py_DECREF(&RecordsType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
